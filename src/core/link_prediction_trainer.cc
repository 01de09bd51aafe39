#include "src/core/link_prediction_trainer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/core/checkpoint.h"
#include "src/eval/metrics.h"
#include "src/pipeline/training_pipeline.h"
#include "src/policy/beta.h"
#include "src/policy/comet.h"
#include "src/tensor/ops.h"
#include "src/util/binary_io.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace mariusgnn {

struct LinkPredictionTrainer::PreparedBatch {
  std::vector<int64_t> targets;  // unique nodes: srcs, dsts, then negatives
  std::vector<int64_t> src_rows;
  std::vector<int64_t> dst_rows;
  std::vector<int64_t> neg_rows;
  std::vector<int32_t> rels;
  DenseBatch dense;
  std::vector<int64_t> dense_nodes;  // node_ids snapshot (dense is consumed by Forward)
  LayerwiseSample layerwise;
};

LinkPredictionTrainer::LinkPredictionTrainer(const Graph* graph, TrainingConfig config)
    : TrainerBase(graph, std::move(config), TaskKind::kLinkPrediction) {
  const int64_t emb_dim = config_.dims.front();

  // Training-edge membership (disk policies iterate all buckets; only train edges
  // become examples).
  is_train_edge_.assign(static_cast<size_t>(graph_->num_edges()), 0);
  if (graph_->train_edges().empty()) {
    std::fill(is_train_edge_.begin(), is_train_edge_.end(), 1);
  } else {
    for (int64_t e : graph_->train_edges()) {
      is_train_edge_[static_cast<size_t>(e)] = 1;
    }
  }

  const float init_scale = 1.0f / std::sqrt(static_cast<float>(emb_dim));
  if (!config_.storage.use_disk) {
    mem_store_ = std::make_unique<InMemoryEmbeddingStore>(graph_->num_nodes(), emb_dim,
                                                          init_scale, rng_);
    mem_store_->set_compute(&compute_);
    full_index_ = std::make_unique<NeighborIndex>(*graph_);
    store_ = mem_store_.get();
  } else {
    MG_CHECK(config_.storage.num_physical >= 2 && config_.storage.buffer_capacity >= 2);
    partitioning_ = std::make_unique<Partitioning>(*graph_, config_.storage.num_physical,
                                                   PartitionAssignment::kRandom, rng_);
    Tensor init = Tensor::Uniform(graph_->num_nodes(), emb_dim, init_scale, rng_);
    const std::string path = config_.storage.dir.empty()
                                 ? TempPath("mgnn_lp_embeddings")
                                 : config_.storage.dir + "/embeddings.bin";
    buffer_ = std::make_unique<PartitionBuffer>(partitioning_.get(), emb_dim,
                                                config_.storage.buffer_capacity, path,
                                                config_.storage.disk_model, /*learnable=*/true,
                                                &init, config_.MakePartitionIoOptions());
    disk_store_ = std::make_unique<BufferedEmbeddingStore>(buffer_.get(), true);
    disk_store_->set_compute(&compute_);
    store_ = disk_store_.get();
    if (replica_.world > 1 && !config_.storage.dir.empty()) {
      // Multi-replica disk training over an explicitly shared storage dir:
      // every replica holds identical embedding state in its buffer, so only
      // the owning rank (partition % world) writes a partition back — the
      // others skip the redundant (and racy) write. With a private per-rank
      // temp file (storage.dir empty) every rank must keep writing everything,
      // or its own later reads would see stale rows.
      std::vector<uint8_t> owned(static_cast<size_t>(config_.storage.num_physical));
      for (int32_t p = 0; p < config_.storage.num_physical; ++p) {
        owned[static_cast<size_t>(p)] =
            static_cast<uint8_t>(p % replica_.world == replica_.rank);
      }
      buffer_->SetPartitionOwnership(std::move(owned));
    }
    if (config_.storage.policy == "beta") {
      policy_ = std::make_unique<BetaPolicy>();
    } else {
      MG_CHECK_MSG(config_.storage.policy == "comet", "policy must be comet or beta");
      policy_ = std::make_unique<CometPolicy>(config_.storage.num_logical,
                                              config_.storage.comet_randomize_grouping,
                                              config_.storage.comet_deferred_assignment);
    }
    MG_CHECK_MSG(config_.sampler == SamplerKind::kDense,
                 "baseline sampler supports in-memory training only");
  }
}

LinkPredictionTrainer::~LinkPredictionTrainer() = default;

// Batch construction (pipeline stage 1). Runs on worker threads: everything is
// derived from `batch_seed` and read-only state, so the batch is identical for any
// worker count (samplers must already point at the right index — see RunBatches).
LinkPredictionTrainer::PreparedBatch LinkPredictionTrainer::PrepareBatch(
    const std::vector<int64_t>& edge_ids, const UniformNegativeSampler& negatives,
    uint64_t batch_seed) const {
  PreparedBatch batch;
  std::unordered_map<int64_t, int64_t> row_of;
  row_of.reserve(edge_ids.size() * 3);
  auto row = [&](int64_t node) {
    auto [it, inserted] = row_of.emplace(node, static_cast<int64_t>(batch.targets.size()));
    if (inserted) {
      batch.targets.push_back(node);
    }
    return it->second;
  };

  batch.src_rows.reserve(edge_ids.size());
  batch.dst_rows.reserve(edge_ids.size());
  batch.rels.reserve(edge_ids.size());
  for (int64_t e : edge_ids) {
    const Edge& edge = graph_->edge(e);
    batch.src_rows.push_back(row(edge.src));
    batch.dst_rows.push_back(row(edge.dst));
    batch.rels.push_back(edge.rel);
  }
  for (int64_t n : negatives.SampleSeeded(config_.num_negatives, MixSeed(batch_seed, 1))) {
    batch.neg_rows.push_back(row(n));
  }

  if (model_.dense_sampler != nullptr) {
    batch.dense = model_.dense_sampler->SampleSeeded(batch.targets, MixSeed(batch_seed, 2));
    batch.dense.FinalizeForDevice();
    batch.dense_nodes = batch.dense.node_ids;
  } else if (model_.layerwise_sampler != nullptr) {
    batch.layerwise =
        model_.layerwise_sampler->SampleSeeded(batch.targets, MixSeed(batch_seed, 3));
  }
  return batch;
}

void LinkPredictionTrainer::ConsumeBatch(PreparedBatch& batch, EpochStats* stats) {
  Tensor reprs;
  if (model_.encoder != nullptr) {
    Tensor h0;
    store_->Gather(batch.dense_nodes, &h0);
    reprs = model_.encoder->Forward(batch.dense, h0);
  } else if (model_.block_encoder != nullptr) {
    Tensor h0;
    store_->Gather(batch.layerwise.input_nodes(), &h0);
    reprs = model_.block_encoder->Forward(batch.layerwise, h0);
  } else {
    store_->Gather(batch.targets, &reprs);
  }

  Tensor d_reprs(reprs.rows(), reprs.cols());
  const float loss = model_.decoder->LossAndGrad(reprs, batch.src_rows, batch.dst_rows,
                                                 batch.rels, batch.neg_rows, &d_reprs);

  // The touched sparse rows + their gradients for this batch; every update —
  // sparse and dense — is applied through the gradient-exchange seam.
  const std::vector<int64_t>* sparse_nodes = nullptr;
  Tensor sparse_grads;
  if (model_.encoder != nullptr) {
    sparse_grads = model_.encoder->Backward(d_reprs);
    sparse_nodes = &batch.dense_nodes;
  } else if (model_.block_encoder != nullptr) {
    sparse_grads = model_.block_encoder->Backward(d_reprs);
    sparse_nodes = &batch.layerwise.input_nodes();
  } else {
    sparse_grads = std::move(d_reprs);
    sparse_nodes = &batch.targets;
  }
  ExchangeApply(/*has_batch=*/true, loss, sparse_nodes, &sparse_grads, store_,
                config_.embedding_lr, stats);
}

// One PipelineSession spans the whole epoch: the producer maps the session's
// global index onto the current set's local batch number (run_batch_base_),
// then through ReplicaBatchPartition onto the set's GLOBAL batch number g —
// rank r builds exactly the batches with g % world == r, seeded by
// ReplicaBatchPartition::BatchSeed(per-set run_seed, g). For world == 1 this
// degenerates to g == local batch and the stream is bit-identical to the
// single-replica pipelines it replaces. Worker count never affects the batch
// stream, only where time goes.
std::unique_ptr<PipelineSession> LinkPredictionTrainer::MakeSession(
    EpochStats* stats) {
  return std::make_unique<PipelineSession>(
      config_.MakePipelineSessionOptions(),
      [this](int64_t index) -> std::shared_ptr<void> {
        const int64_t g = replica_.GlobalIndex(index - run_batch_base_);
        const int64_t begin = g * config_.batch_size;
        const int64_t end = begin + config_.batch_size < run_total_
                                ? begin + config_.batch_size
                                : run_total_;
        const std::vector<int64_t> ids(run_ids_->begin() + begin,
                                       run_ids_->begin() + end);
        return std::make_shared<PreparedBatch>(
            PrepareBatch(ids, *run_negatives_,
                         ReplicaBatchPartition::BatchSeed(run_seed_, g)));
      },
      [this, stats](void* item, int64_t) {
        // The consumer runs strictly in batch-index order; ConsumeBatch routes
        // the step through the exchange seam, which folds every replica's loss
        // into the epoch's determinism hash (docs/DETERMINISM.md).
        ConsumeBatch(*static_cast<PreparedBatch*>(item), stats);
      });
}

void LinkPredictionTrainer::RunBatches(
    const std::vector<int64_t>& edge_ids, const NeighborIndex& index,
    const UniformNegativeSampler& negatives, PipelineSession* session,
    EpochStats* stats) {
  const int64_t total = static_cast<int64_t>(edge_ids.size());
  if (total == 0) {
    return;
  }
  // Point the samplers at this run's index once, up front; workers then only call
  // const, seed-driven sampling methods. Swapping this (and the run_* members) is
  // safe here: no producer can run between segments — workers never claim an
  // index beyond the announced limit.
  if (model_.dense_sampler != nullptr) {
    model_.dense_sampler->set_index(&index);
  }
  if (model_.layerwise_sampler != nullptr) {
    model_.layerwise_sampler->set_index(&index);
  }
  run_ids_ = &edge_ids;
  run_negatives_ = &negatives;
  run_seed_ = rng_.Next();
  run_batch_base_ = session->announced();
  run_total_ = total;
  const int64_t num_batches =
      (total + config_.batch_size - 1) / config_.batch_size;
  // Rank r consumes only the global batches with g % world == r; the other
  // ranks' losses/gradients arrive through the exchange. Ranks whose share is
  // short of the step count run trailing batchless exchanges so every rank
  // performs the same exchange sequence (StepCount == rank 0's local count).
  const int64_t local_batches = replica_.LocalCount(num_batches);
  const int64_t steps = replica_.StepCount(num_batches);
  const PipelineStats ps = session->RunSegment(local_batches);
  for (int64_t s = local_batches; s < steps; ++s) {
    ExchangeApply(/*has_batch=*/false, 0.0f, nullptr, nullptr, store_,
                  config_.embedding_lr, stats);
  }
  int64_t local_examples = local_batches * config_.batch_size;
  if (local_batches > 0 &&
      replica_.GlobalIndex(local_batches - 1) == num_batches - 1) {
    // This rank owns the (possibly partial) last global batch.
    local_examples += total - (num_batches - 1) * config_.batch_size -
                      config_.batch_size;
  }
  stats->AccumulatePipeline(ps, local_examples);
}

EpochStats LinkPredictionTrainer::TrainEpochInMemory() {
  EpochStats stats;
  compute_stats_.Reset();
  WallTimer timer;
  std::vector<int64_t> edge_ids = graph_->train_edges();
  if (edge_ids.empty()) {
    edge_ids.resize(static_cast<size_t>(graph_->num_edges()));
    for (int64_t e = 0; e < graph_->num_edges(); ++e) {
      edge_ids[static_cast<size_t>(e)] = e;
    }
  }
  rng_.Shuffle(edge_ids);
  std::unique_ptr<PipelineSession> session = MakeSession(&stats);
  UniformNegativeSampler negatives(graph_->num_nodes(), rng_.Next());
  RunBatches(edge_ids, *full_index_, negatives, session.get(), &stats);
  stats.compute_seconds = timer.Seconds();
  stats.wall_seconds = stats.compute_seconds;
  stats.workers_per_set.push_back(session->workers());
  stats.compute_parallel_efficiency = compute_stats_.ParallelEfficiency();
  stats.num_partition_sets = 1;
  if (stats.num_global_batches > 0) {
    stats.loss /= static_cast<double>(stats.num_global_batches);
  }
  return stats;
}

EpochStats LinkPredictionTrainer::TrainEpochDisk() {
  EpochStats stats;
  compute_stats_.Reset();
  EpochPlan plan = policy_->GenerateEpoch(*partitioning_, config_.storage.buffer_capacity, rng_);
  stats.num_partition_sets = plan.num_sets();
  std::unique_ptr<PipelineSession> session = MakeSession(&stats);

  double prev_compute = 0.0;
  for (int64_t i = 0; i < plan.num_sets(); ++i) {
    const double sync_io = buffer_->SetResident(plan.sets[static_cast<size_t>(i)]);
    stats.AccumulateSwapIo(sync_io, buffer_->ConsumeBackgroundIoSeconds(),
                           prev_compute);

    // Shared-storage fence (no-op otherwise): this set's dirty evictions may
    // still be async submissions, and partitions another rank owns are never
    // written back by this rank at all — so before anyone reads ahead, drain
    // own write-backs and rendezvous. Every set-i read is thereby covered by
    // the fence at set i-1 (within one SetResident the evict and load sets are
    // disjoint, and all ranks run identical plans); the prefetch below issues
    // strictly after the fence. The epoch boundary needs no extra fence:
    // FlushAll below is synchronous and the epoch-hash exchange that follows
    // it is itself a rendezvous.
    SharedWritebackBarrier(buffer_.get());

    // Stage the next set's partitions while this set trains (Figure 2's partition
    // prefetch); the policy knows the upcoming swap.
    if (config_.storage.prefetch && i + 1 < plan.num_sets()) {
      buffer_->Prefetch(policy_->Lookahead(plan, i));
    }

    WallTimer set_timer;
    // In-memory subgraph: all edges between resident partitions (Section 4.1).
    std::vector<Edge> resident_edges;
    const auto& set = plan.sets[static_cast<size_t>(i)];
    for (int32_t a : set) {
      for (int32_t b : set) {
        for (int64_t e : partitioning_->Bucket(a, b)) {
          resident_edges.push_back(graph_->edge(e));
        }
      }
    }
    NeighborIndex index(graph_->num_nodes(), resident_edges);

    // X_i: training examples assigned to this set.
    std::vector<int64_t> train_ids;
    for (const BucketId& bucket : plan.buckets_per_set[static_cast<size_t>(i)]) {
      for (int64_t e : partitioning_->Bucket(bucket.first, bucket.second)) {
        if (is_train_edge_[static_cast<size_t>(e)] != 0) {
          train_ids.push_back(e);
        }
      }
    }
    rng_.Shuffle(train_ids);

    const UniformNegativeSampler negatives(buffer_->ResidentNodes(), rng_.Next());
    RunBatches(train_ids, index, negatives, session.get(), &stats);
    prev_compute = set_timer.Seconds();
    stats.compute_seconds += prev_compute;
    stats.workers_per_set.push_back(session->workers());
  }
  // End-of-epoch flush: write-backs still in flight drained plus the final dirty
  // evictions. Background leftovers are charged conservatively as full stalls.
  const double flush_io = buffer_->FlushAll();
  const double leftover_bg = buffer_->ConsumeBackgroundIoSeconds();
  stats.io_seconds += flush_io + leftover_bg;
  stats.io_stall_seconds += flush_io + leftover_bg;
  const IoEngineStats engine_io = buffer_->ConsumeIoStats();
  stats.io_read_bytes = engine_io.read_bytes;
  stats.io_write_bytes = engine_io.write_bytes;
  stats.io_queue_depth_mean = engine_io.queue_depth_mean;
  stats.io_inflight_peak = engine_io.inflight_peak;
  stats.wall_seconds = stats.compute_seconds + stats.io_stall_seconds;
  stats.compute_parallel_efficiency = compute_stats_.ParallelEfficiency();
  if (stats.num_global_batches > 0) {
    stats.loss /= static_cast<double>(stats.num_global_batches);
  }
  return stats;
}

EpochStats LinkPredictionTrainer::TrainEpochImpl() {
  return config_.storage.use_disk ? TrainEpochDisk() : TrainEpochInMemory();
}

CheckpointSectionSpec LinkPredictionTrainer::MakeBufferSectionSpec(
    const char* name, bool state_stream) {
  const Partitioning* partitioning = partitioning_.get();
  int64_t num_nodes = 0;
  int64_t max_rows = 0;
  for (int32_t part = 0; part < partitioning->num_partitions(); ++part) {
    num_nodes += partitioning->PartitionSize(part);
    max_rows = std::max(max_rows, partitioning->PartitionSize(part));
  }
  const int64_t dim = buffer_->dim();
  CheckpointSectionSpec spec;
  spec.name = name;
  spec.rows = num_nodes;
  spec.cols = dim;
  PartitionBuffer* buffer = buffer_.get();
  spec.write = [partitioning, buffer, dim, max_rows,
                state_stream](CheckpointSectionWriter* w) {
    // One partition of one stream is the only staging this producer ever holds
    // — the streaming writer's whole point. Rows scatter to their node-indexed
    // positions because partitions hold a random permutation of node ids.
    std::vector<float> scratch(static_cast<size_t>(max_rows) * dim);
    w->NoteStagingBytes(scratch.size() * sizeof(float));
    for (int32_t part = 0; part < partitioning->num_partitions(); ++part) {
      buffer->ExportPartition(part, state_stream ? nullptr : scratch.data(),
                              state_stream ? scratch.data() : nullptr);
      const auto& nodes = partitioning->NodesIn(part);
      for (size_t k = 0; k < nodes.size(); ++k) {
        w->WriteRows(nodes[k], 1, &scratch[k * static_cast<size_t>(dim)]);
      }
    }
  };
  return spec;
}

void LinkPredictionTrainer::AppendCheckpointSections(CheckpointSaveRequest* request) {
  if (config_.storage.use_disk) {
    // Disk mode: streamed partition-by-partition. Resident partitions flush
    // through from buffer memory; evicted ones are read back via the engine —
    // the full table is never materialised (peak = one partition's scratch).
    request->sections.push_back(MakeBufferSectionSpec("embeddings.values", false));
    request->sections.push_back(MakeBufferSectionSpec("embeddings.state", true));
  } else {
    request->sections.push_back(
        TensorSectionSpec("embeddings.values", mem_store_->values()));
    request->sections.push_back(
        TensorSectionSpec("embeddings.state", mem_store_->state()));
  }
}

void LinkPredictionTrainer::RestoreCheckpointSections(CheckpointReader& reader) {
  const CheckpointSectionInfo* values = reader.FindSection("embeddings.values");
  const CheckpointSectionInfo* state = reader.FindSection("embeddings.state");
  MG_CHECK_MSG(values != nullptr && state != nullptr,
               "checkpoint is missing the embedding sections");
  std::string error;
  if (config_.storage.use_disk) {
    const Partitioning* partitioning = partitioning_.get();
    int64_t num_nodes = 0;
    int64_t max_rows = 0;
    for (int32_t part = 0; part < partitioning->num_partitions(); ++part) {
      num_nodes += partitioning->PartitionSize(part);
      max_rows = std::max(max_rows, partitioning->PartitionSize(part));
    }
    const int64_t dim = buffer_->dim();
    MG_CHECK_MSG(values->rows == num_nodes && values->cols == dim &&
                     state->rows == num_nodes && state->cols == dim,
                 "checkpoint embedding shape mismatch");
    // Inverse of the streaming save: gather each partition's rows from their
    // node-indexed section positions into one-partition scratch buffers, then
    // overwrite that partition's on-disk extent. Peak memory stays at one
    // partition of each stream.
    buffer_->BeginImport();
    std::vector<float> vscratch(static_cast<size_t>(max_rows) * dim);
    std::vector<float> sscratch(vscratch.size());
    for (int32_t part = 0; part < partitioning->num_partitions(); ++part) {
      const auto& nodes = partitioning->NodesIn(part);
      for (size_t k = 0; k < nodes.size(); ++k) {
        MG_CHECK_MSG(reader.ReadRows(*values, nodes[k], 1,
                                     &vscratch[k * static_cast<size_t>(dim)], &error),
                     error.c_str());
        MG_CHECK_MSG(reader.ReadRows(*state, nodes[k], 1,
                                     &sscratch[k * static_cast<size_t>(dim)], &error),
                     error.c_str());
      }
      buffer_->ImportPartition(part, vscratch.data(), sscratch.data());
    }
  } else {
    MG_CHECK_MSG(values->rows == mem_store_->values().rows() &&
                     values->cols == mem_store_->values().cols(),
                 "checkpoint embedding shape mismatch");
    std::vector<float> value_data(static_cast<size_t>(values->rows) * values->cols);
    MG_CHECK_MSG(reader.ReadSection(*values, value_data.data(), &error),
                 error.c_str());
    std::vector<float> state_data(static_cast<size_t>(state->rows) * state->cols);
    MG_CHECK_MSG(reader.ReadSection(*state, state_data.data(), &error),
                 error.c_str());
    mem_store_->Restore(Tensor(values->rows, values->cols, std::move(value_data)),
                        Tensor(state->rows, state->cols, std::move(state_data)));
  }
}

// Evaluation-time neighborhood samples are seeded from the run seed (not the
// samplers' internal RNG streams), so metrics are a pure function of model
// state: repeated evaluations of the same model agree bit-for-bit, and a
// checkpoint-resumed trainer evaluates identically to the one that saved it.
Tensor LinkPredictionTrainer::InferReprs(const std::vector<int64_t>& nodes,
                                         const Tensor& values,
                                         const NeighborIndex& index) {
  const uint64_t eval_seed = MixSeed(config_.seed, 0x4556414CULL);  // "EVAL"
  return model_.InferReprs(
      nodes, eval_seed, index,
      [&](const std::vector<int64_t>& ids) { return IndexSelect(values, ids, &compute_); },
      &compute_);
}

namespace {

// Exact packed key for (src, rel, dst); valid for graphs below 2^20 nodes and 2^24
// relations (checked by the caller).
uint64_t EdgeKey(int64_t src, int32_t rel, int64_t dst) {
  return (static_cast<uint64_t>(src) << 44) |
         (static_cast<uint64_t>(static_cast<uint32_t>(rel)) << 20) |
         static_cast<uint64_t>(dst);
}

}  // namespace

double LinkPredictionTrainer::EvaluateMrr(int64_t num_negatives, int64_t max_edges,
                                          bool use_valid, bool filtered) {
  if (filtered && true_edges_.empty()) {
    MG_CHECK_MSG(graph_->num_nodes() < (1LL << 20) && graph_->num_relations() < (1 << 24),
                 "filtered MRR requires < 2^20 nodes and < 2^24 relations");
    true_edges_.reserve(static_cast<size_t>(graph_->num_edges()) * 2);
    for (const Edge& e : graph_->edges()) {
      true_edges_.insert(EdgeKey(e.src, e.rel, e.dst));
    }
  }
  // Base representations in memory (exported from disk when needed).
  Tensor values;
  if (config_.storage.use_disk) {
    values = buffer_->ExportAll();
  } else {
    values = mem_store_->values();
  }
  if (full_index_ == nullptr) {
    full_index_ = std::make_unique<NeighborIndex>(*graph_);
  }

  const std::vector<int64_t>& split = use_valid ? graph_->valid_edges() : graph_->test_edges();
  std::vector<int64_t> edge_ids = split;
  if (edge_ids.empty()) {
    for (int64_t e = 0; e < std::min<int64_t>(max_edges, graph_->num_edges()); ++e) {
      edge_ids.push_back(e);
    }
  }
  if (static_cast<int64_t>(edge_ids.size()) > max_edges) {
    edge_ids.resize(static_cast<size_t>(max_edges));
  }

  Rng eval_rng(config_.seed + 97);
  std::vector<int64_t> neg_nodes(static_cast<size_t>(num_negatives));
  for (auto& v : neg_nodes) {
    v = eval_rng.UniformInt(0, graph_->num_nodes());
  }

  std::vector<int64_t> ranks;
  const int64_t chunk = 256;
  for (size_t begin = 0; begin < edge_ids.size(); begin += chunk) {
    const size_t end = std::min(edge_ids.size(), begin + chunk);
    std::vector<int64_t> targets;
    std::unordered_map<int64_t, int64_t> row_of;
    auto row = [&](int64_t node) {
      auto [it, inserted] = row_of.emplace(node, static_cast<int64_t>(targets.size()));
      if (inserted) {
        targets.push_back(node);
      }
      return it->second;
    };
    std::vector<int64_t> srcs, dsts;
    std::vector<int32_t> rels;
    for (size_t k = begin; k < end; ++k) {
      const Edge& e = graph_->edge(edge_ids[k]);
      srcs.push_back(row(e.src));
      dsts.push_back(row(e.dst));
      rels.push_back(e.rel);
    }
    std::vector<int64_t> neg_rows;
    for (int64_t n : neg_nodes) {
      neg_rows.push_back(row(n));
    }

    Tensor reprs = InferReprs(targets, values, *full_index_);
    std::vector<float> neg_scores;
    std::vector<float> kept_scores;
    std::vector<float> pos_score;
    // Node ids behind each edge row in this chunk (needed for filtering).
    std::vector<int64_t> src_ids, dst_ids;
    for (size_t k = begin; k < end; ++k) {
      src_ids.push_back(graph_->edge(edge_ids[k]).src);
      dst_ids.push_back(graph_->edge(edge_ids[k]).dst);
    }
    for (size_t k = 0; k < srcs.size(); ++k) {
      // dst corruption.
      model_.decoder->ScoreCandidates(reprs, srcs[k], rels[k], {dsts[k]}, false, &pos_score);
      model_.decoder->ScoreCandidates(reprs, srcs[k], rels[k], neg_rows, false, &neg_scores);
      if (filtered) {
        kept_scores.clear();
        for (size_t j = 0; j < neg_nodes.size(); ++j) {
          if (true_edges_.count(EdgeKey(src_ids[k], rels[k], neg_nodes[j])) == 0) {
            kept_scores.push_back(neg_scores[j]);
          }
        }
        ranks.push_back(RankOfPositive(pos_score[0], kept_scores));
      } else {
        ranks.push_back(RankOfPositive(pos_score[0], neg_scores));
      }
      // src corruption.
      model_.decoder->ScoreCandidates(reprs, dsts[k], rels[k], {srcs[k]}, true, &pos_score);
      model_.decoder->ScoreCandidates(reprs, dsts[k], rels[k], neg_rows, true, &neg_scores);
      if (filtered) {
        kept_scores.clear();
        for (size_t j = 0; j < neg_nodes.size(); ++j) {
          if (true_edges_.count(EdgeKey(neg_nodes[j], rels[k], dst_ids[k])) == 0) {
            kept_scores.push_back(neg_scores[j]);
          }
        }
        ranks.push_back(RankOfPositive(pos_score[0], kept_scores));
      } else {
        ranks.push_back(RankOfPositive(pos_score[0], neg_scores));
      }
    }
  }
  return MrrFromRanks(ranks);
}

}  // namespace mariusgnn
