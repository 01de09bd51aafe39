// Pipeline bench: serial vs pipelined (1 and N batch-construction workers) epoch
// time for link prediction, in-memory and disk modes, plus the shipped-default
// configuration.
//
// "serial" is the fully synchronous baseline of Figure 2 without pipelining: batch
// construction blocks compute and every partition load/write-back stalls the epoch.
// The pipelined configurations run the TrainingPipeline (sampling overlaps compute)
// and, in disk mode, PartitionBuffer::Prefetch (partition IO overlaps compute), so
// epoch time = compute + *unhidden* IO stalls drops strictly below the baseline.
// Losses and MRR are printed to show the trajectories are identical for every
// configuration — batches are derived from per-batch seeds and consumed in order, so
// pipelining changes only where time goes, never what is computed.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/binary_io.h"

using namespace mariusgnn;
using namespace mariusgnn::bench;

namespace {

// Enough epochs and graph scale that wall-clock scheduler jitter is small relative
// to the modeled-IO overlap win (this bench also runs on 1-core CI boxes).
constexpr int kEpochs = 5;

TrainingConfig BaseConfig() {
  TrainingConfig config;
  config.layer_type = GnnLayerType::kGraphSage;
  config.fanouts = {10};
  config.dims = {16, 16};
  config.batch_size = 500;
  config.num_negatives = 64;
  return config;
}

struct PipelineRun {
  double epoch_seconds = 0.0;
  double sample_seconds = 0.0;
  double io_stall_seconds = 0.0;
  double compute_efficiency = 1.0;
  double queue_occupancy_mean = 0.0;  // last epoch, fraction of queue capacity
  // IO-engine counters, summed over the epochs (zero when the engine is off).
  uint64_t io_read_bytes = 0;
  uint64_t io_write_bytes = 0;
  double io_queue_depth_mean = 0.0;  // last epoch
  int io_inflight_peak = 0;          // max across epochs
  // Gradient-exchange counters, summed over the epochs (zero for world=1's
  // LocalExchange; nonzero only when replicas train over the seam).
  double comm_seconds = 0.0;
  uint64_t comm_bytes = 0;
  double loss = 0.0;  // last-epoch mean loss
  double mrr = 0.0;
  // Fold of the per-epoch determinism hashes across the run's epochs: one u64
  // that two configurations can compare to prove their whole multi-epoch batch
  // streams were bitwise-identical (stronger than comparing last-epoch loss).
  uint64_t determinism_hash = 0;
  // RV violations observed across the run's epochs (must be 0).
  uint64_t rv_violations = 0;
  // One streamed checkpoint save at end of run: wall time and peak transient
  // allocation (disk mode must stay O(one partition), never the full table).
  double checkpoint_save_seconds = 0.0;
  uint64_t checkpoint_peak_bytes = 0;
};

// One (mode, configuration) row for the machine-readable output the CI
// bench-regression gate diffs against the previous main-branch artifact.
struct JsonRow {
  std::string mode;  // "memory" or "disk"
  std::string name;  // "serial", "pipelined_w1", ...
  PipelineRun run;
  bool identical = true;  // trajectory matches the serial baseline
};

std::vector<JsonRow>& JsonRows() {
  static std::vector<JsonRow> rows;
  return rows;
}

// Disk-mode queue-depth sweep headline: io_stall_sec(qd=1) - io_stall_sec(qd=16).
// Positive = the deeper queue hid more IO (the expected direction).
double& IoStallGapQd16VsQd1() {
  static double gap = 0.0;
  return gap;
}

// Measured cost of the always-on RV monitors: (epoch time with monitors enabled
// - disabled) / disabled, min-of-N epochs per side. Must stay < 1%.
double& RvOverheadFraction() {
  static double fraction = 0.0;
  return fraction;
}

void WriteJson(const std::string& path, bool all_identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("WARN: could not open %s for writing\n", path.c_str());
    return;
  }
  const std::vector<JsonRow>& rows = JsonRows();
  std::fprintf(f, "{\n  \"bench\": \"pipeline\",\n  \"epochs\": %d,\n", kEpochs);
  std::fprintf(f, "  \"all_trajectories_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"io_stall_gap_qd16_vs_qd1\": %.6f,\n", IoStallGapQd16VsQd1());
  std::fprintf(f, "  \"rv_overhead_fraction\": %.6f,\n", RvOverheadFraction());
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"name\": \"%s\", \"epoch_sec\": %.6f, "
                 "\"sample_sec\": %.6f, \"io_stall_sec\": %.6f, \"par_eff\": %.4f, "
                 "\"queue_occ\": %.4f, "
                 "\"io_read_bytes\": %llu, \"io_write_bytes\": %llu, "
                 "\"io_queue_depth_mean\": %.4f, \"io_inflight_peak\": %d, "
                 "\"comm_sec\": %.6f, \"comm_bytes\": %llu, "
                 "\"loss\": %.8f, \"mrr\": %.8f, "
                 "\"determinism_hash\": \"%016llx\", \"rv_violations\": %llu, "
                 "\"checkpoint_save_sec\": %.6f, "
                 "\"checkpoint_peak_bytes\": %llu, "
                 "\"identical\": %s}%s\n",
                 r.mode.c_str(), r.name.c_str(), r.run.epoch_seconds,
                 r.run.sample_seconds, r.run.io_stall_seconds, r.run.compute_efficiency,
                 r.run.queue_occupancy_mean,
                 static_cast<unsigned long long>(r.run.io_read_bytes),
                 static_cast<unsigned long long>(r.run.io_write_bytes),
                 r.run.io_queue_depth_mean, r.run.io_inflight_peak,
                 r.run.comm_seconds,
                 static_cast<unsigned long long>(r.run.comm_bytes),
                 r.run.loss, r.run.mrr,
                 static_cast<unsigned long long>(r.run.determinism_hash),
                 static_cast<unsigned long long>(r.run.rv_violations),
                 r.run.checkpoint_save_seconds,
                 static_cast<unsigned long long>(r.run.checkpoint_peak_bytes),
                 r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Pipeline settings of a pinned row, so the CI regression gate measures the same
// configuration on every host. workers == 0 is the fully synchronous baseline: no
// pipeline, no prefetch. `shared_pool` != nullptr enables the stage-3 parallel
// kernels AND routes the pipeline workers onto the same pool — the production
// default's contention path (compute helpers only enlist threads the sampling
// workers leave idle).
PipelineOptions Pinned(int workers, ThreadPool* shared_pool = nullptr) {
  PipelineOptions pipeline;
  pipeline.enabled = workers > 0;
  pipeline.workers = workers;
  pipeline.parallel_compute = shared_pool != nullptr;
  pipeline.compute_pool = shared_pool;
  pipeline.pipeline_pool = shared_pool;
  return pipeline;
}

// Partition prefetch follows the pipeline: on whenever batches are pipelined.
PipelineRun Run(const Graph& graph, bool disk, const PipelineOptions& pipeline,
                int io_queue_depth = 4, bool io_direct = true) {
  TrainingConfig config = BaseConfig();
  config.pipeline = pipeline;
  config.storage.prefetch = pipeline.enabled;
  config.storage.io_queue_depth = io_queue_depth;
  config.storage.io_direct = io_direct;
  if (disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
    // The bench graph is ~100x smaller than the paper's, so with the default EBS
    // model partition IO rounds to nothing. Scale the disk down to keep the
    // IO:compute ratio representative — the overlap win is then a deterministic
    // modeled quantity instead of scheduler noise.
    config.storage.disk_model.bandwidth_bytes_per_sec = 25e6;
    config.storage.disk_model.iops = 500.0;
  }
  LinkPredictionTrainer trainer(&graph, config);
  PipelineRun result;
  DeterminismHash run_hash;
  for (int e = 0; e < kEpochs; ++e) {
    const EpochStats stats = trainer.TrainEpoch();
    run_hash.FoldU64(stats.determinism_hash);
    result.rv_violations += stats.rv_violations;
    result.epoch_seconds += stats.wall_seconds;
    result.sample_seconds += stats.sample_seconds;
    result.io_stall_seconds += stats.io_stall_seconds;
    result.compute_efficiency = stats.compute_parallel_efficiency;
    result.queue_occupancy_mean = stats.queue_occupancy_mean;
    result.io_read_bytes += stats.io_read_bytes;
    result.io_write_bytes += stats.io_write_bytes;
    result.io_queue_depth_mean = stats.io_queue_depth_mean;
    result.io_inflight_peak = std::max(result.io_inflight_peak, stats.io_inflight_peak);
    result.comm_seconds += stats.comm_seconds;
    result.comm_bytes += stats.comm_bytes;
    result.loss = stats.loss;
  }
  result.epoch_seconds /= kEpochs;
  result.sample_seconds /= kEpochs;
  result.io_stall_seconds /= kEpochs;
  result.determinism_hash = run_hash.value();
  result.mrr = trainer.EvaluateMrr(100, 300);
  const std::string ckpt_path = TempPath("bench_pipeline_ckpt");
  trainer.SaveCheckpoint(ckpt_path);
  result.checkpoint_save_seconds = trainer.last_checkpoint_stats().seconds;
  result.checkpoint_peak_bytes = trainer.last_checkpoint_stats().peak_bytes;
  std::remove(ckpt_path.c_str());
  return result;
}

// Returns true when every pipelined configuration reproduced the serial trajectory.
bool RunMode(const Graph& graph, bool disk) {
  const char* mode = disk ? "disk" : "memory";
  std::printf("\n%-18s %12s %12s %12s %8s %10s %8s\n",
              disk ? "disk" : "in-memory", "epoch_sec", "sample_sec", "io_stall_sec",
              "par_eff", "loss", "mrr");
  const PipelineRun serial = Run(graph, disk, Pinned(/*workers=*/0));
  std::printf("%-18s %12.4f %12.4f %12.4f %8s %10.5f %8.4f\n", "serial",
              serial.epoch_seconds, serial.sample_seconds, serial.io_stall_seconds,
              "-", serial.loss, serial.mrr);
  JsonRows().push_back({mode, "serial", serial, true});
  bool all_identical = true;
  auto check = [&](const char* name, const PipelineRun& run) {
    // The determinism hash covers every batch of every epoch; loss/MRR are the
    // human-readable corroboration.
    const bool identical = run.determinism_hash == serial.determinism_hash &&
                           run.loss == serial.loss && run.mrr == serial.mrr;
    all_identical = all_identical && identical;
    std::printf("  %s vs serial: %+6.1f%% epoch time, trajectories %s\n", name,
                100.0 * (run.epoch_seconds - serial.epoch_seconds) /
                    serial.epoch_seconds,
                identical ? "IDENTICAL" : "DIVERGED (BUG)");
    return identical;
  };
  for (int workers : {1, 4}) {
    const PipelineRun run = Run(graph, disk, Pinned(workers));
    std::printf("pipelined(w=%d)     %12.4f %12.4f %12.4f %8s %10.5f %8.4f\n", workers,
                run.epoch_seconds, run.sample_seconds, run.io_stall_seconds, "-",
                run.loss, run.mrr);
    const bool identical = check("pipelined", run);
    JsonRows().push_back(
        {mode, "pipelined_w" + std::to_string(workers), run, identical});
  }
  // Stage-3 parallel compute on top of the w=4 pipeline, with ONE 8-worker pool
  // genuinely shared by sampling workers and compute chunks (the production
  // default's contention path). Trajectories must still be bitwise-identical;
  // par_eff reports how well the compute chunks scaled on this host.
  {
    ThreadPool shared_pool(8);
    const PipelineRun run = Run(graph, disk, Pinned(/*workers=*/4, &shared_pool));
    std::printf("pipelined+par(t=8) %12.4f %12.4f %12.4f %8.2f %10.5f %8.4f\n",
                run.epoch_seconds, run.sample_seconds, run.io_stall_seconds,
                run.compute_efficiency, run.loss, run.mrr);
    const bool identical = check("pipelined+par", run);
    JsonRows().push_back({mode, "pipelined_par_t8", run, identical});
  }
  // The shipped default: PipelineOptions untouched — default worker count,
  // stage-3 parallel compute on, sampling workers and compute chunks sharing
  // ThreadPool::Global(). The trajectory must still be bitwise-identical.
  {
    const PipelineRun run = Run(graph, disk, PipelineOptions());
    std::printf("default            %12.4f %12.4f %12.4f %8.2f %10.5f %8.4f\n",
                run.epoch_seconds, run.sample_seconds, run.io_stall_seconds,
                run.compute_efficiency, run.loss, run.mrr);
    const bool identical = check("default", run);
    JsonRows().push_back({mode, "default", run, identical});
  }
  // IO-engine queue-depth sweep (disk only): same w=4 pipelined configuration at
  // engine depths 1/4/16, buffered and direct. Loss/MRR must be identical in
  // every cell — the engine reorders transfers, never batches — and the deeper
  // queue should hide at least as much modeled IO as the serial-depth engine
  // (latency amortises across a saturated queue; bandwidth stays serial).
  if (disk) {
    std::printf("  io-engine sweep (w=4):\n");
    double qd1_stall = 0.0;
    double qd16_stall = 0.0;
    for (const bool direct : {false, true}) {
      for (const int qd : {1, 4, 16}) {
        const PipelineRun run = Run(graph, disk, Pinned(/*workers=*/4), qd, direct);
        const std::string name =
            "qd" + std::to_string(qd) + (direct ? "_direct" : "_buffered");
        std::printf("  %-16s %12.4f %12s %12.4f %8s %10.5f %8.4f  (depth_mean=%.2f peak=%d)\n",
                    name.c_str(), run.epoch_seconds, "-", run.io_stall_seconds, "-",
                    run.loss, run.mrr, run.io_queue_depth_mean, run.io_inflight_peak);
        const bool identical = check(name.c_str(), run);
        JsonRows().push_back({mode, name, run, identical});
        if (direct && qd == 1) {
          qd1_stall = run.io_stall_seconds;
        }
        if (direct && qd == 16) {
          qd16_stall = run.io_stall_seconds;
        }
      }
    }
    IoStallGapQd16VsQd1() = qd1_stall - qd16_stall;
    std::printf("  io_stall gap qd16 vs qd1: %.4f s (positive = deeper queue hid more IO)\n",
                IoStallGapQd16VsQd1());
    if (IoStallGapQd16VsQd1() < 0.0) {
      std::printf("  WARN: qd=16 stalled more than qd=1 on this host\n");
    }
  }
  return all_identical;
}

// Measures the monitors' cost on the in-memory w=4 pipeline: min-of-N epoch
// wall time with RvRuntime enabled vs disabled. Min (not mean) because the
// monitor cost is a constant per observation while scheduler noise is additive.
double MeasureRvOverhead(const Graph& graph) {
  // Min-of-N with the two arms interleaved per rep: the true monitor cost is a
  // constant additive term, while scheduler noise is additive and positive, so
  // the minimum converges on the true cost — and interleaving keeps slow host
  // drift (thermal, cache pressure from neighbors) from landing entirely on
  // one arm.
  constexpr int kReps = 5;
  double best_on = 0.0;
  double best_off = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool on : {false, true}) {
      RvRuntime::Global().set_enabled(on);
      double& best = on ? best_on : best_off;
      TrainingConfig config = BaseConfig();
      config.pipeline.enabled = true;
      config.pipeline.workers = 4;
      LinkPredictionTrainer trainer(&graph, config);
      for (int e = 0; e < 2; ++e) {
        const EpochStats stats = trainer.TrainEpoch();
        if (best == 0.0 || stats.wall_seconds < best) {
          best = stats.wall_seconds;
        }
      }
    }
  }
  RvRuntime::Global().set_enabled(true);
  return best_off > 0.0 ? (best_on - best_off) / best_off : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    }
  }
  PrintHeader("Pipeline: serial vs pipelined batch construction + partition prefetch");
  Graph graph = Fb15k237Like(0.3);
  std::printf("FB15k-237-like scale=0.3: %lld nodes, %lld edges, %d epochs\n",
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()), kEpochs);
  bool ok = RunMode(graph, /*disk=*/false);
  ok = RunMode(graph, /*disk=*/true) && ok;
  const uint64_t rv_total = RvRuntime::Global().TotalViolations();
  if (rv_total != 0) {
    std::printf("\nFAIL: %llu RV violations across all runs (expected 0)\n",
                static_cast<unsigned long long>(rv_total));
    ok = false;
  }
  RvOverheadFraction() = MeasureRvOverhead(graph);
  std::printf("\nrv monitor overhead: %+.3f%% epoch time (target < 1%%)\n",
              100.0 * RvOverheadFraction());
  if (RvOverheadFraction() > 0.01) {
    // Warn, don't fail: on loaded CI hosts scheduler noise between the two
    // measurements can exceed the true monitor cost.
    std::printf("WARN: rv monitor overhead above 1%% on this host\n");
  }
  if (!json_path.empty()) {
    WriteJson(json_path, ok);
  }
  if (!ok) {
    std::printf("\nFAIL: a pipelined configuration diverged from the serial run\n");
  }
  return ok ? 0 : 1;
}
