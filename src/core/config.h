// Training configuration and per-epoch statistics shared by both trainers.
//
// The knob list is grouped into sub-structs by subsystem — StorageOptions
// (partition buffer + IO engine), PipelineOptions (async pipeline + compute
// parallelism), CheckpointOptions (crash-safe snapshots) —
// so callers configure one subsystem at a time and new knobs land next to their
// neighbors.
#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/gradient_exchange.h"
#include "src/core/model.h"
#include "src/graph/neighbor_index.h"
#include "src/nn/encoder.h"
#include "src/pipeline/training_pipeline.h"
#include "src/storage/disk.h"
#include "src/storage/partition_buffer.h"
#include "src/util/check.h"
#include "src/util/compute.h"

namespace mariusgnn {

// Out-of-core embedding storage: partitioning, buffer replacement, and the
// batched IO engine underneath it (src/storage/).
struct StorageOptions {
  bool use_disk = false;
  int32_t num_physical = 1;    // p
  int32_t num_logical = 1;     // l (COMET)
  int32_t buffer_capacity = 1; // c
  std::string policy = "comet";  // "comet" or "beta" (link prediction)
  bool comet_randomize_grouping = true;   // ablation knob (Section 5.1, mechanism 1)
  bool comet_deferred_assignment = true;  // ablation knob (Section 5.1, mechanism 2)
  DiskModel disk_model;
  bool prefetch = true;  // overlap partition IO with compute in reported timings
  // Batched IO engine knobs (effective only when prefetch is on; see
  // src/storage/io_engine.h). queue_depth is the in-flight transfer limit,
  // io_direct requests O_DIRECT (probed at runtime, buffered fallback), and
  // io_coalesce_writes merges adjacent dirty write-backs. None of these affect
  // training trajectories — only how fast the modeled IO completes.
  int io_queue_depth = 4;
  bool io_direct = true;
  bool io_coalesce_writes = true;
  std::string dir;  // defaults to a fresh temp path
};

// Async batch-construction pipeline and stage-3 compute parallelism
// (src/pipeline/, src/util/compute.h).
struct PipelineOptions {
  bool enabled = true;  // overlap sampling with compute
  // Stage-1 batch-construction workers when pipelined, fixed for the epoch. Worker
  // count never changes results: batches are derived from per-batch seeds and
  // consumed in order. On a 4-vCPU host one worker was as fast as two or faster
  // for both trainers (link prediction on the perfbench graphs, GraphSage node
  // classification on PapersMini(0.5)); with parallel_compute on, extra workers
  // compete with the stage-3 chunks for pool threads.
  int workers = 1;
  int64_t queue_capacity = 4;  // prepared batches buffered ahead of compute
  // Stage-3 compute parallelism: run the hot kernels (matmuls, neighbor
  // aggregation, ranking loss, sparse Adagrad) in fixed chunks on the shared
  // ThreadPool. Like the pipeline, this never changes results — chunk boundaries
  // and reduction order depend only on tensor shapes (src/util/compute.h), so
  // serial and N-thread runs are bitwise-identical.
  bool parallel_compute = true;
  // Pool overrides for tests/benches; nullptr = ThreadPool::Global(). Pointing both
  // at one pool exercises the production default of sampling workers and compute
  // chunks sharing the global pool.
  ThreadPool* compute_pool = nullptr;
  ThreadPool* pipeline_pool = nullptr;
};

// Crash-safe checkpointing (src/core/checkpoint.h): every n completed epochs
// the trainer writes an atomic epoch-boundary snapshot (model parameters +
// Adagrad accumulators, embedding table, RNG/epoch state) to `path`. A trainer
// constructed with the same config can ResumeFrom(path) and continue
// bitwise-identically to a run that never stopped. 0 disables automatic
// snapshots (SaveCheckpoint can still be called explicitly).
struct CheckpointOptions {
  int64_t every_n_epochs = 0;
  std::string path;
  // Keep-last-k retention: when > 0, each auto-save lands in a per-epoch file
  // "<path>.epoch<N>" and the oldest files beyond the newest k are pruned after
  // a successful commit (stale ".tmp" debris from crashed saves is swept too).
  // 0 preserves the legacy single-file behavior: every save overwrites `path`.
  int64_t keep_last_k = 0;
};

struct TrainingConfig {
  // Model.
  GnnLayerType layer_type = GnnLayerType::kGraphSage;
  std::vector<int64_t> fanouts;  // per hop, ordered away from targets; empty = no GNN
  std::vector<int64_t> dims;     // dims[0] = base representation width
  EdgeDirection direction = EdgeDirection::kBoth;
  std::string decoder = "distmult";  // link prediction only
  SamplerKind sampler = SamplerKind::kDense;

  // Optimisation.
  int64_t batch_size = 1000;
  int64_t num_negatives = 100;        // link prediction only
  float embedding_lr = 0.1f;          // sparse Adagrad on base representations
  float weight_lr = 0.01f;            // Adagrad on GNN/decoder weights
  uint64_t seed = 7;

  // Subsystem option groups (see the struct docs above; ReplicaOptions lives
  // with its subsystem in src/comm/gradient_exchange.h).
  StorageOptions storage;
  PipelineOptions pipeline;
  CheckpointOptions checkpoint;
  ReplicaOptions replica;

  int64_t num_layers() const { return static_cast<int64_t>(fanouts.size()); }

  // The model-defining subset of this config (src/core/model.h): what
  // ModelState::Build consumes, shared verbatim by both trainers and the
  // serving tier so a server always reconstructs exactly the trained model.
  ModelConfig model_config() const {
    ModelConfig m;
    m.layer_type = layer_type;
    m.fanouts = fanouts;
    m.dims = dims;
    m.direction = direction;
    m.decoder = decoder;
    m.sampler = sampler;
    m.weight_lr = weight_lr;
    m.seed = seed;
    return m;
  }

  // Pipeline settings for one epoch run, validated (both trainers drive their
  // PipelineSession through this so the wiring cannot diverge).
  PipelineSessionOptions MakePipelineSessionOptions() const {
    MG_CHECK_MSG(pipeline.queue_capacity > 0, "pipeline.queue_capacity must be > 0");
    MG_CHECK_MSG(pipeline.workers >= 0, "pipeline.workers must be >= 0");
    PipelineSessionOptions options;
    options.workers = pipeline.enabled ? pipeline.workers : 0;
    options.queue_capacity = static_cast<size_t>(pipeline.queue_capacity);
    options.pool = pipeline.pipeline_pool;
    return options;
  }

  // Partition-buffer IO mode for one trainer (both trainers build theirs through
  // this so the wiring cannot diverge): the batched engine runs iff prefetching
  // is on, with the configured depth/direct/coalescing knobs.
  PartitionIoOptions MakePartitionIoOptions() const {
    MG_CHECK_MSG(storage.io_queue_depth >= 1, "storage.io_queue_depth must be >= 1");
    PartitionIoOptions options;
    options.async = storage.prefetch;
    options.queue_depth = storage.io_queue_depth;
    options.direct_io = storage.io_direct;
    options.coalesce_writes = storage.io_coalesce_writes;
    return options;
  }

  // Gradient-exchange seam for one trainer (both trainers build theirs through
  // this so the replica wiring cannot diverge): the zero-copy LocalExchange
  // when replica.world_size == 1, a localhost-TCP ProcessGroupExchange
  // otherwise (construction blocks until every rank connects;
  // docs/DISTRIBUTED.md).
  std::unique_ptr<GradientExchange> MakeGradientExchange() const {
    return CreateGradientExchange(replica);
  }

  // Stage-3 compute handle for one trainer, recording into `stats` (both trainers
  // build theirs through this so the wiring cannot diverge).
  ComputeContext MakeComputeContext(ComputeStats* stats) const {
    ComputeContext ctx;
    if (pipeline.parallel_compute) {
      ctx.pool = pipeline.compute_pool != nullptr ? pipeline.compute_pool
                                                  : &ThreadPool::Global();
    }
    ctx.stats = stats;
    return ctx;
  }
};

struct EpochStats {
  double loss = 0.0;
  // Per-stage breakdown of the pipeline (Figure 2): sample = batch construction
  // across workers, io = modeled partition IO, compute = the training stage's wall
  // time, stalls = time a stage spent waiting on another.
  double wall_seconds = 0.0;      // compute + unhidden IO stalls
  double compute_seconds = 0.0;
  // Scaling quality of the stage-3 parallel kernels: per-chunk busy time divided by
  // the capacity actually enlisted (sum of region wall x executors). 1.0 = every
  // region fully used its threads; serial runs report 1.0.
  double compute_parallel_efficiency = 1.0;
  double sample_seconds = 0.0;    // batch construction (overlaps compute when pipelined)
  double io_seconds = 0.0;        // total modeled IO
  double io_stall_seconds = 0.0;  // IO not hidden by prefetch overlap
  double pipeline_stall_seconds = 0.0;  // compute blocked waiting for the next batch
  // Cross-replica gradient-exchange accounting (all zero for the world=1
  // LocalExchange): total comm time split into synchronous waits plus
  // background serialize/transport, the part not hidden by compute overlap
  // (same excess-over-overlap convention as io_stall_seconds — see
  // AccumulateComm and docs/ARCHITECTURE.md), and bytes moved on the wire.
  double comm_seconds = 0.0;
  double comm_stall_seconds = 0.0;
  uint64_t comm_bytes = 0;
  // IO-engine transfer counters for the epoch (zero when the engine is off):
  // bytes moved through the engine, the time-weighted mean of outstanding
  // requests while it was busy, and the peak outstanding count.
  uint64_t io_read_bytes = 0;
  uint64_t io_write_bytes = 0;
  double io_queue_depth_mean = 0.0;
  int io_inflight_peak = 0;
  // Stage-1 sampling workers each partition set ran with (one entry per set), and
  // the time-weighted mean pipeline-queue occupancy (fraction of capacity)
  // across the epoch's pipelined segments. resize_count is always 0 (the worker
  // count is fixed per epoch); perfbench still reads it.
  std::vector<int> workers_per_set;
  int resize_count = 0;
  double queue_occupancy_mean = 0.0;
  int64_t num_batches = 0;
  int64_t num_examples = 0;
  // Batches folded across ALL replicas this epoch (the loss divisor): every
  // rank's exchange carries every contributed batch's loss, so this equals
  // num_batches when world == 1 and world x the per-rank share otherwise.
  int64_t num_global_batches = 0;
  int64_t num_partition_sets = 0;
  // Ordered FNV-1a 64 fold of every batch's mean-loss bits, in consumption
  // order (docs/DETERMINISM.md). Two runs of the same epoch — serial or
  // pipelined, fresh or resumed, any worker count — must produce the same u64;
  // a mismatch means the batch stream itself diverged. Also persisted in the
  // checkpoint manifest as the "determinism_hash" scalar.
  uint64_t determinism_hash = 0;
  // Runtime-verification violations observed during the epoch (process-wide
  // RvRuntime delta across src/util/rv_monitor.h's monitored invariants).
  // Always 0 unless a pipeline/IO/serving invariant was broken.
  uint64_t rv_violations = 0;
  // Checkpoint auto-save accounting for this epoch; both are 0 when no save
  // ran. peak_bytes is the save path's largest transient allocation (manifest +
  // one partition of staging + the checksum chunk — never a full table image,
  // which is the streaming writer's contract).
  double checkpoint_save_seconds = 0.0;
  uint64_t checkpoint_peak_bytes = 0;

  // Folds one pipeline run over `num_examples` examples into the epoch totals.
  // The epoch-level queue occupancy mean weights each segment by its batch count.
  void AccumulatePipeline(const PipelineStats& ps, int64_t examples) {
    if (num_batches + ps.num_items > 0) {
      queue_occupancy_mean =
          (queue_occupancy_mean * static_cast<double>(num_batches) +
           ps.queue_occupancy_mean * static_cast<double>(ps.num_items)) /
          static_cast<double>(num_batches + ps.num_items);
    }
    num_batches += ps.num_items;
    num_examples += examples;
    sample_seconds += ps.sample_seconds;
    pipeline_stall_seconds += ps.stall_seconds;
  }

  // Folds one partition swap into the epoch totals: synchronous IO (loads the
  // prefetcher missed) stalls in full; background IO (prefetch reads + async
  // write-backs) only by its excess over the compute it overlapped.
  void AccumulateSwapIo(double sync_io, double background_io,
                        double overlapped_compute) {
    io_seconds += sync_io + background_io;
    io_stall_seconds += sync_io + std::max(0.0, background_io - overlapped_compute);
  }

  // Folds the epoch's gradient-exchange accounting into the totals, using the
  // same excess-over-overlap stall convention as AccumulateSwapIo: synchronous
  // exchange waits (the trainer thread blocked inside Exchange) stall in full;
  // background serialize/transport time only by its excess over the compute it
  // overlapped.
  void AccumulateComm(double blocking_comm, double background_comm,
                      double overlapped_compute) {
    comm_seconds += blocking_comm + background_comm;
    comm_stall_seconds +=
        blocking_comm + std::max(0.0, background_comm - overlapped_compute);
  }
};

}  // namespace mariusgnn

#endif  // SRC_CORE_CONFIG_H_
