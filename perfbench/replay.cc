// Layer replays for traced runs. Each replay drives one layer's public entry
// point directly, on the workload's own graph and training config, and times
// it with the benchmark's steady_clock; the span around each call is that
// layer's span in the trace dump.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "src/sampler/negative.h"

namespace perfbench {

using namespace mariusgnn;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// One training batch's inputs, built the way the link-prediction trainer's
// stage 1 builds them: unique target nodes (sources, destinations, then
// shared negatives) and row indices into them.
struct BatchInputs {
  std::vector<int64_t> targets;
  std::vector<int64_t> src_rows;
  std::vector<int64_t> dst_rows;
  std::vector<int64_t> neg_rows;
  std::vector<int32_t> rels;
};

BatchInputs MakeBatchInputs(const Graph& graph, const std::vector<int64_t>& edge_ids,
                            const std::vector<int64_t>& negatives) {
  BatchInputs in;
  std::unordered_map<int64_t, int64_t> row_of;
  auto row = [&](int64_t node) {
    auto [it, inserted] = row_of.emplace(node, static_cast<int64_t>(in.targets.size()));
    if (inserted) {
      in.targets.push_back(node);
    }
    return it->second;
  };
  for (int64_t e : edge_ids) {
    const Edge& edge = graph.edge(e);
    in.src_rows.push_back(row(edge.src));
    in.dst_rows.push_back(row(edge.dst));
    in.rels.push_back(edge.rel);
  }
  for (int64_t n : negatives) {
    in.neg_rows.push_back(row(n));
  }
  return in;
}

}  // namespace

void ReplaySamplerAndNn(const Graph& graph, const TrainingConfig& config,
                        uint64_t seed, int64_t batches, Result* result) {
  Rng rng(MixSeed(seed, 21));
  ModelState model =
      ModelState::Build(TaskKind::kLinkPrediction, graph, config.model_config(), rng);
  // The shipped compute handle (parallel_compute = true, the shared global
  // pool) with a stats sink, so the compute layer's fan-out is measured even
  // though the timed epochs compute on one thread.
  TrainingConfig shipped = config;
  shipped.pipeline.parallel_compute = true;
  ComputeStats compute_stats;
  const ComputeContext compute = shipped.MakeComputeContext(&compute_stats);
  model.SetCompute(&compute);
  const NeighborIndex index(graph);
  const int64_t dim = config.dims.front();
  InMemoryEmbeddingStore store(graph.num_nodes(), dim,
                               1.0f / std::sqrt(static_cast<float>(dim)), rng);
  store.set_compute(&compute);

  std::vector<int64_t> edges = graph.train_edges();
  rng.Shuffle(edges);
  const UniformNegativeSampler negatives(graph.num_nodes(), rng.Next());
  const int64_t batch_size = config.batch_size;
  batches = std::min<int64_t>(
      batches, static_cast<int64_t>(edges.size()) / batch_size);

  std::vector<double> sample_ms, nodes, forward_ms, loss_ms, backward_ms, optimizer_ms;
  compute_stats.Reset();
  for (int64_t b = 0; b < batches; ++b) {
    const std::vector<int64_t> ids(edges.begin() + b * batch_size,
                                   edges.begin() + (b + 1) * batch_size);
    const uint64_t batch_seed = MixSeed(seed, static_cast<uint64_t>(b));
    const BatchInputs in = MakeBatchInputs(
        graph, ids, negatives.SampleSeeded(config.num_negatives, MixSeed(batch_seed, 1)));

    Clock::time_point t0 = Clock::now();
    DenseBatch dense;
    {
      ScopedSpan span("sampler.SampleSeeded");
      dense = model.dense_sampler->SampleSeeded(in.targets, MixSeed(batch_seed, 2),
                                                &index);
      dense.FinalizeForDevice();
    }
    sample_ms.push_back(MillisSince(t0));
    nodes.push_back(static_cast<double>(dense.num_nodes()));
    const std::vector<int64_t> dense_nodes = dense.node_ids;  // Forward consumes dense
    Tensor h0;
    store.Gather(dense_nodes, &h0);

    t0 = Clock::now();
    Tensor reprs;
    {
      ScopedSpan span("nn.GnnEncoder::Forward");
      reprs = model.encoder->Forward(dense, h0);
    }
    forward_ms.push_back(MillisSince(t0));

    t0 = Clock::now();
    Tensor d_reprs(reprs.rows(), reprs.cols());
    {
      ScopedSpan span("nn.Decoder::LossAndGrad");
      model.decoder->LossAndGrad(reprs, in.src_rows, in.dst_rows, in.rels, in.neg_rows,
                                 &d_reprs);
    }
    loss_ms.push_back(MillisSince(t0));

    t0 = Clock::now();
    Tensor grads;
    {
      ScopedSpan span("nn.GnnEncoder::Backward");
      grads = model.encoder->Backward(d_reprs);
    }
    backward_ms.push_back(MillisSince(t0));

    // Dense Adagrad on the GNN/decoder weights plus sparse Adagrad on the
    // touched embedding rows: the whole optimizer step of one batch.
    t0 = Clock::now();
    {
      ScopedSpan span("nn.Adagrad::Step");
      model.weight_opt->StepAll(model.params);
      store.ApplyGradients(dense_nodes, grads, config.embedding_lr);
    }
    optimizer_ms.push_back(MillisSince(t0));
  }

  result->Add("sampler.sample_ms", Median(sample_ms), "ms");
  result->Add("sampler.nodes_per_batch", Median(nodes), "nodes");
  result->Add("nn.forward_ms", Median(forward_ms), "ms");
  result->Add("nn.backward_ms", Median(backward_ms), "ms");
  result->Add("nn.loss_ms", Median(loss_ms), "ms");
  result->Add("nn.optimizer_ms", Median(optimizer_ms), "ms");
  result->Add("compute.busy_s", compute_stats.busy_seconds, "s");
  result->Add("compute.wall_s", compute_stats.wall_seconds, "s");
  result->Add("compute.capacity_s", compute_stats.capacity_seconds, "s");
}

void ReplayPolicyGraphStorage(const Graph& graph, const TrainingConfig& config,
                              uint64_t seed, const std::string& workdir,
                              Result* result) {
  if (!config.storage.use_disk) {
    // In-memory training builds one NeighborIndex at construction and never
    // touches the policy or storage layers during an epoch.
    for (const char* name : {"graph.index_build_s", "storage.swap_s", "storage.flush_s"}) {
      result->Add(name, 0.0, "s");
    }
    result->Add("policy.plan_ms", 0.0, "ms");
    result->Add("policy.sets", 0.0, "count");
    result->Add("policy.partition_loads", 0.0, "count");
    return;
  }
  const StorageOptions& storage = config.storage;
  Rng rng(MixSeed(seed, 23));
  const Partitioning partitioning(graph, storage.num_physical,
                                  PartitionAssignment::kRandom, rng);
  CometPolicy policy(storage.num_logical, storage.comet_randomize_grouping,
                     storage.comet_deferred_assignment);
  std::vector<double> plan_ms;
  EpochPlan plan;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span("policy.CometPolicy::GenerateEpoch");
    plan = policy.GenerateEpoch(partitioning, storage.buffer_capacity, rng);
    plan_ms.push_back(MillisSince(t0));
  }
  result->Add("policy.plan_ms", Median(plan_ms), "ms");
  result->Add("policy.sets", static_cast<double>(plan.num_sets()), "count");
  result->Add("policy.partition_loads", static_cast<double>(plan.TotalPartitionLoads()),
              "count");

  // Per-set in-memory subgraph index, as the disk trainer rebuilds it.
  double index_ms = 0.0;
  for (const std::vector<int32_t>& set : plan.sets) {
    std::vector<Edge> resident;
    for (int32_t a : set) {
      for (int32_t b : set) {
        for (int64_t e : partitioning.Bucket(a, b)) {
          resident.push_back(graph.edge(e));
        }
      }
    }
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span("graph.NeighborIndex");
    const NeighborIndex index(graph.num_nodes(), resident);
    index_ms += MillisSince(t0);
  }
  result->Add("graph.index_build_s", index_ms * 1e-3, "s");

  // Partition swaps along the plan, each resident partition dirtied as a
  // training set would leave it, then the end-of-epoch flush.
  const int64_t dim = config.dims.front();
  const Tensor init = Tensor::Uniform(graph.num_nodes(), dim, 0.1f, rng);
  PartitionBuffer buffer(&partitioning, dim, storage.buffer_capacity,
                         workdir + "/replay_embeddings.bin", storage.disk_model,
                         /*learnable=*/true, &init, config.MakePartitionIoOptions());
  double swap_ms = 0.0;
  for (int64_t i = 0; i < plan.num_sets(); ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("storage.PartitionBuffer::SetResident");
      buffer.SetResident(plan.sets[static_cast<size_t>(i)]);
    }
    if (storage.prefetch && i + 1 < plan.num_sets()) {
      ScopedSpan span("storage.PartitionBuffer::Prefetch");
      buffer.Prefetch(policy.Lookahead(plan, i));
    }
    swap_ms += MillisSince(t0);
    for (int32_t part : plan.sets[static_cast<size_t>(i)]) {
      if (partitioning.PartitionSize(part) > 0) {
        buffer.MarkDirty(partitioning.NodesIn(part).front());
      }
    }
  }
  result->Add("storage.swap_s", swap_ms * 1e-3, "s");
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span("storage.PartitionBuffer::FlushAll");
    buffer.FlushAll();
  }
  result->Add("storage.flush_s", MillisSince(t0) * 1e-3, "s");
}

}  // namespace perfbench
