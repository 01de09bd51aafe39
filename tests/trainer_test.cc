// Trainer-level tests: models learn (loss falls, metrics beat chance) in every
// configuration the paper exercises — in-memory/disk, DENSE/baseline, LP/NC.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/checkpoint.h"
#include "src/core/link_prediction_trainer.h"
#include "src/core/node_classification_trainer.h"
#include "src/data/datasets.h"
#include "src/eval/metrics.h"
#include "src/util/binary_io.h"

namespace mariusgnn {
namespace {

TrainingConfig SmallLpConfig() {
  TrainingConfig config;
  config.fanouts = {5};
  config.dims = {16, 16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = false;
  return config;
}

TEST(LinkPrediction, DecoderOnlyLossDecreases) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, DecoderOnlyMrrBeatsChance) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  LinkPredictionTrainer trainer(&g, config);
  for (int e = 0; e < 5; ++e) {
    trainer.TrainEpoch();
  }
  const double mrr = trainer.EvaluateMrr(100, 300);
  // Random ranking against 100 negatives gives MRR ~ 0.05.
  EXPECT_GT(mrr, 0.15);
}

TEST(LinkPrediction, GraphSageLearns) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss * 0.95);
  EXPECT_GT(trainer.EvaluateMrr(100, 200), 0.10);
}

TEST(LinkPrediction, GatRuns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.layer_type = GnnLayerType::kGat;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  const EpochStats second = trainer.TrainEpoch();
  EXPECT_LT(second.loss, first.loss);
}

TEST(LinkPrediction, PipelinedMatchesUnpipelinedProgress) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = true;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 2; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, BaselineSamplerLearns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.sampler = SamplerKind::kLayerwise;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 2; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, DiskCometTrainsAndTracksIo) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  config.storage.policy = "comet";
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EXPECT_GT(first.io_seconds, 0.0);
  EXPECT_GT(first.num_partition_sets, 1);
  EpochStats last;
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GT(trainer.EvaluateMrr(100, 200), 0.08);
}

TEST(LinkPrediction, DiskBetaTrains) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.buffer_capacity = 4;
  config.storage.policy = "beta";
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, EpochIteratesAllTrainExamples) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  LinkPredictionTrainer mem_trainer(&g, config);
  const EpochStats mem = mem_trainer.TrainEpoch();
  EXPECT_EQ(mem.num_examples, static_cast<int64_t>(g.train_edges().size()));

  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  LinkPredictionTrainer disk_trainer(&g, config);
  const EpochStats disk = disk_trainer.TrainEpoch();
  EXPECT_EQ(disk.num_examples, static_cast<int64_t>(g.train_edges().size()));
}

TrainingConfig SmallNcConfig() {
  TrainingConfig config;
  config.fanouts = {10, 5};
  config.dims = {64, 32, 32};
  config.batch_size = 256;
  config.num_negatives = 0;
  config.pipeline.enabled = false;
  config.weight_lr = 0.05f;
  return config;
}

TEST(NodeClassification, InMemoryBeatsChance) {
  Graph g = PapersMini(0.08);
  TrainingConfig config = SmallNcConfig();
  NodeClassificationTrainer trainer(&g, config);
  EpochStats first, last;
  for (int e = 0; e < 5; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (e == 0) {
      first = s;
    }
    last = s;
  }
  EXPECT_LT(last.loss, first.loss);
  const double acc = trainer.EvaluateTestAccuracy();
  // 32 communities: chance is ~3%.
  EXPECT_GT(acc, 0.30);
}

TEST(NodeClassification, DiskCachedPolicyWorks) {
  Graph g = PapersMini(0.08);
  TrainingConfig config = SmallNcConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 16;
  config.storage.buffer_capacity = 8;
  NodeClassificationTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  // Cached regime: a single partition set per epoch, zero intra-epoch swaps.
  EXPECT_EQ(first.num_partition_sets, 1);
  for (int e = 0; e < 4; ++e) {
    trainer.TrainEpoch();
  }
  EXPECT_GT(trainer.EvaluateTestAccuracy(), 0.25);
}

TEST(NodeClassification, BaselineSamplerLearns) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  config.sampler = SamplerKind::kLayerwise;
  NodeClassificationTrainer trainer(&g, config);
  EpochStats first, last;
  for (int e = 0; e < 3; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (e == 0) {
      first = s;
    }
    last = s;
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(NodeClassification, PipelinedLearns) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  config.pipeline.enabled = true;
  NodeClassificationTrainer trainer(&g, config);
  EpochStats first, last;
  for (int e = 0; e < 3; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (e == 0) {
      first = s;
    }
    last = s;
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, DeterministicForSameSeed) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = false;
  LinkPredictionTrainer a(&g, config);
  LinkPredictionTrainer b(&g, config);
  const EpochStats sa = a.TrainEpoch();
  const EpochStats sb = b.TrainEpoch();
  EXPECT_DOUBLE_EQ(sa.loss, sb.loss);
  EXPECT_DOUBLE_EQ(a.EvaluateMrr(50, 100), b.EvaluateMrr(50, 100));
}

TEST(LinkPrediction, DiskGatTrains) {
  Graph g = Fb15k237Like(0.04);
  TrainingConfig config = SmallLpConfig();
  config.layer_type = GnnLayerType::kGat;
  config.direction = EdgeDirection::kIncoming;
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  const EpochStats second = trainer.TrainEpoch();
  EXPECT_LT(second.loss, first.loss);
}

TEST(NodeClassification, DiskFallbackRotationWhenTrainSetLarge) {
  // Force k >= c: tiny buffer relative to the training partitions.
  Graph g = PapersMini(0.08);
  TrainingConfig config = SmallNcConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 16;
  config.storage.buffer_capacity = 2;
  NodeClassificationTrainer trainer(&g, config);
  const EpochStats stats = trainer.TrainEpoch();
  // Rotation visits every partition: many sets, each training a node subset.
  EXPECT_GT(stats.num_partition_sets, 1);
  EXPECT_EQ(stats.num_examples, static_cast<int64_t>(g.train_nodes().size()));
}

TEST(LinkPrediction, DiskEpochIoDropsWithLargerBuffer) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 8;
  config.storage.buffer_capacity = 2;
  LinkPredictionTrainer small(&g, config);
  const double io_small = small.TrainEpoch().io_seconds;

  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  LinkPredictionTrainer large(&g, config);
  const double io_large = large.TrainEpoch().io_seconds;
  EXPECT_LT(io_large, io_small);
}

TEST(LinkPrediction, FilteredMrrAtLeastRaw) {
  // Filtering removes true-edge negatives, so ranks can only improve.
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  LinkPredictionTrainer trainer(&g, config);
  for (int e = 0; e < 3; ++e) {
    trainer.TrainEpoch();
  }
  const double raw = trainer.EvaluateMrr(200, 200, false, false);
  const double filtered = trainer.EvaluateMrr(200, 200, false, true);
  EXPECT_GE(filtered, raw - 1e-9);
}

TEST(LinkPrediction, TransEDecoderLearns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  config.decoder = "transe";
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 2; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, ComplExDecoderLearns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  config.decoder = "complex";
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  EpochStats last;
  for (int e = 0; e < 2; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, GcnEncoderLearns) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.layer_type = GnnLayerType::kGcn;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats first = trainer.TrainEpoch();
  const EpochStats second = trainer.TrainEpoch();
  EXPECT_LT(second.loss, first.loss);
}

TEST(NodeClassification, GatEncoderLearns) {
  Graph g = PapersMini(0.04);
  TrainingConfig config = SmallNcConfig();
  config.layer_type = GnnLayerType::kGat;
  config.fanouts = {5, 5};
  NodeClassificationTrainer trainer(&g, config);
  EpochStats first, last;
  for (int e = 0; e < 3; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (e == 0) {
      first = s;
    }
    last = s;
  }
  EXPECT_LT(last.loss, first.loss);
}

TEST(LinkPrediction, WorkerCountDoesNotChangeTrajectory) {
  // Batches are derived from per-batch seeds and consumed in order, so serial,
  // 1-worker, and N-worker pipelines must be bitwise identical.
  Graph g = Fb15k237Like(0.03);
  std::vector<double> losses;
  std::vector<double> mrrs;
  for (int workers : {0, 1, 3}) {
    TrainingConfig config = SmallLpConfig();
    config.pipeline.enabled = workers > 0;
    config.pipeline.workers = workers;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    losses.push_back(loss);
    mrrs.push_back(trainer.EvaluateMrr(50, 100));
  }
  EXPECT_DOUBLE_EQ(losses[1], losses[0]);
  EXPECT_DOUBLE_EQ(losses[2], losses[0]);
  EXPECT_DOUBLE_EQ(mrrs[1], mrrs[0]);
  EXPECT_DOUBLE_EQ(mrrs[2], mrrs[0]);
}

TEST(LinkPrediction, DiskPipelineAndPrefetchDoNotChangeTrajectory) {
  // The async path (partition prefetch + background write-back + pipeline workers)
  // must reproduce the fully synchronous run exactly.
  Graph g = Fb15k237Like(0.05);
  auto run = [&](bool pipelined, bool prefetch) {
    TrainingConfig config = SmallLpConfig();
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
    config.pipeline.enabled = pipelined;
    config.pipeline.workers = 2;
    config.storage.prefetch = prefetch;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    return std::make_pair(loss, trainer.EvaluateMrr(50, 100));
  };
  const auto base = run(false, false);
  const auto prefetch_only = run(false, true);
  const auto full_async = run(true, true);
  EXPECT_DOUBLE_EQ(prefetch_only.first, base.first);
  EXPECT_DOUBLE_EQ(full_async.first, base.first);
  EXPECT_DOUBLE_EQ(prefetch_only.second, base.second);
  EXPECT_DOUBLE_EQ(full_async.second, base.second);
}

TEST(NodeClassification, WorkerCountDoesNotChangeTrajectory) {
  Graph g = PapersMini(0.05);
  std::vector<double> losses;
  for (int workers : {0, 2}) {
    TrainingConfig config = SmallNcConfig();
    config.pipeline.enabled = workers > 0;
    config.pipeline.workers = workers;
    NodeClassificationTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    losses.push_back(loss);
  }
  EXPECT_DOUBLE_EQ(losses[1], losses[0]);
}

TEST(LinkPrediction, PipelinedEpochReportsStageBreakdown) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 2;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats stats = trainer.TrainEpoch();
  EXPECT_GT(stats.sample_seconds, 0.0);       // batch construction was timed
  EXPECT_GE(stats.pipeline_stall_seconds, 0.0);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_GT(stats.compute_parallel_efficiency, 0.0);
}

TEST(LinkPrediction, ParallelComputeDoesNotChangeTrajectory) {
  // Stage-3 kernels run in fixed chunks with ordered reductions, so serial compute
  // and an 8-worker pool must produce bitwise-identical loss/MRR trajectories —
  // with and without the sampling pipeline running on top.
  Graph g = Fb15k237Like(0.05);
  ThreadPool pool(8);
  auto run = [&](bool parallel, bool pipelined) {
    TrainingConfig config = SmallLpConfig();
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    // Sampling workers and compute chunks share ONE pool (production default).
    config.pipeline.pipeline_pool = (parallel && pipelined) ? &pool : nullptr;
    config.pipeline.enabled = pipelined;
    config.pipeline.workers = 2;
    LinkPredictionTrainer trainer(&g, config);
    std::vector<double> losses;
    for (int e = 0; e < 3; ++e) {
      losses.push_back(trainer.TrainEpoch().loss);
    }
    losses.push_back(trainer.EvaluateMrr(50, 100));
    return losses;
  };
  const auto serial = run(false, false);
  const auto parallel = run(true, false);
  const auto parallel_pipelined = run(true, true);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "epoch " << i;
    EXPECT_EQ(parallel_pipelined[i], serial[i]) << "epoch " << i;
  }
}

TEST(LinkPrediction, ParallelComputeDiskTrajectoryIdentical) {
  // Disk mode adds the sharded sparse Adagrad through the partition buffer; the
  // parallel apply must still reproduce the serial run exactly.
  Graph g = Fb15k237Like(0.05);
  ThreadPool pool(8);
  auto run = [&](bool parallel) {
    TrainingConfig config = SmallLpConfig();
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
    config.pipeline.enabled = true;
    config.pipeline.workers = 2;
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    return std::make_pair(loss, trainer.EvaluateMrr(50, 100));
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  EXPECT_EQ(parallel.first, serial.first);
  EXPECT_EQ(parallel.second, serial.second);
}

TEST(NodeClassification, ParallelComputeDoesNotChangeTrajectory) {
  Graph g = PapersMini(0.05);
  ThreadPool pool(8);
  auto run = [&](bool parallel) {
    TrainingConfig config = SmallNcConfig();
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    config.pipeline.enabled = true;
    config.pipeline.workers = 2;
    NodeClassificationTrainer trainer(&g, config);
    std::vector<double> out;
    for (int e = 0; e < 2; ++e) {
      out.push_back(trainer.TrainEpoch().loss);
    }
    out.push_back(trainer.EvaluateTestAccuracy());
    return out;
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "epoch " << i;
  }
}

TEST(LinkPrediction, GatParallelComputeTrajectoryIdentical) {
  // GAT has the most intricate backward (per-chunk attention-gradient partials).
  Graph g = Fb15k237Like(0.04);
  ThreadPool pool(8);
  auto run = [&](bool parallel) {
    TrainingConfig config = SmallLpConfig();
    config.layer_type = GnnLayerType::kGat;
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    return loss;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(LinkPrediction, BaselineSamplerParallelComputeTrajectoryIdentical) {
  // Drives the BlockEncoder path: the BlockToView two-pass parallel counting sort
  // runs multi-chunk here (512-edge batches x fanout 5 > one sort chunk) and must
  // leave the trajectory bitwise-equal to the serial-compute run.
  Graph g = Fb15k237Like(0.05);
  ThreadPool pool(8);
  auto run = [&](bool parallel) {
    TrainingConfig config = SmallLpConfig();
    config.sampler = SamplerKind::kLayerwise;
    config.pipeline.parallel_compute = parallel;
    config.pipeline.compute_pool = parallel ? &pool : nullptr;
    LinkPredictionTrainer trainer(&g, config);
    double loss = 0.0;
    for (int e = 0; e < 2; ++e) {
      loss += trainer.TrainEpoch().loss;
    }
    return std::make_pair(loss, trainer.EvaluateMrr(50, 100));
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  EXPECT_DOUBLE_EQ(parallel.first, serial.first);
  EXPECT_DOUBLE_EQ(parallel.second, serial.second);
}

TEST(LinkPrediction, DiskEpochRecordsFixedWorkersPerSet) {
  // The stage-1 worker count is fixed for the session: every partition set of a
  // disk epoch reports the configured count, in memory and on disk alike.
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  config.pipeline.enabled = true;
  config.pipeline.workers = 3;
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats stats = trainer.TrainEpoch();
  ASSERT_GT(stats.num_partition_sets, 1);
  EXPECT_EQ(stats.workers_per_set,
            std::vector<int>(static_cast<size_t>(stats.num_partition_sets), 3));
  EXPECT_EQ(stats.resize_count, 0);
  EXPECT_GE(stats.queue_occupancy_mean, 0.0);
  EXPECT_LE(stats.queue_occupancy_mean, 1.0);
}

// ---------------------------------------------------------------------------
// Golden-trajectory regression gate. The determinism sweeps above prove that
// worker counts, prefetch, and parallel compute cannot change the batch stream;
// these tests pin the stream itself. The reference values are the bit-exact
// loss/MRR/accuracy trajectories of the checked-in implementation (fixed seed,
// IEEE-754 double, no fast-math anywhere in the build), so any future change
// that silently alters batch construction, seeding, reduction order, or
// consumption order fails tier-1 here instead of only in the determinism sweeps.
//
// To regenerate after an INTENTIONAL stream change: run with
// --gtest_filter='GoldenTrajectory.*' and copy the "actual" values each failing
// test prints (they are emitted with %.17g, enough digits to round-trip).

struct GoldenRun {
  std::vector<double> losses;    // per-epoch mean loss
  std::vector<uint64_t> hashes;  // per-epoch determinism hash
  double metric = 0.0;           // MRR (LP) or test accuracy (NC)
};

void ExpectGolden(const GoldenRun& run, const std::vector<double>& want_losses,
                  double want_metric) {
  ASSERT_EQ(run.losses.size(), want_losses.size());
  for (size_t e = 0; e < want_losses.size(); ++e) {
    EXPECT_EQ(run.losses[e], want_losses[e])
        << "epoch " << e << " actual loss: "
        << ::testing::PrintToString(run.losses[e]).c_str();
  }
  EXPECT_EQ(run.metric, want_metric);
  std::printf("golden actuals: losses={");
  for (size_t e = 0; e < run.losses.size(); ++e) {
    std::printf("%s%.17g", e == 0 ? "" : ", ", run.losses[e]);
  }
  std::printf("}, metric=%.17g\n", run.metric);
}

// With `resume`, the run is interrupted after epoch 1: the first trainer saves a
// checkpoint and is destroyed, a second trainer (same config) restores it and
// trains the remaining epoch. The checkpoint layer guarantees the stitched
// trajectory is bitwise-identical to the uninterrupted one, so both variants
// must reproduce the same golden constants. With `legacy_scalars`, the checkpoint
// is rewritten through the whole-table path with the two manifest scalars the
// deleted adaptive worker controller used to write, as files from before its
// removal carry them.
GoldenRun GoldenLpRun(bool use_disk, bool resume = false, bool legacy_scalars = false) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 2;
  if (use_disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
  }
  GoldenRun run;
  auto record = [&run](const EpochStats& stats) {
    run.losses.push_back(stats.loss);
    run.hashes.push_back(stats.determinism_hash);
  };
  if (!resume) {
    LinkPredictionTrainer trainer(&g, config);
    for (int e = 0; e < 2; ++e) {
      record(trainer.TrainEpoch());
    }
    run.metric = trainer.EvaluateMrr(50, 100);
    return run;
  }
  const std::string ckpt = TempPath("mgnn_golden_lp_ckpt");
  {
    LinkPredictionTrainer trainer(&g, config);
    record(trainer.TrainEpoch());
    trainer.SaveCheckpoint(ckpt);
  }
  if (legacy_scalars) {
    Checkpoint ck;
    std::string error;
    EXPECT_TRUE(LoadCheckpoint(ckpt, &ck, &error)) << error;
    ck.scalars.emplace_back("controller_workers", 3);
    ck.scalars.emplace_back("controller_cooldown", 2);
    SaveCheckpoint(ck, ckpt);
  }
  LinkPredictionTrainer resumed(&g, config);
  resumed.ResumeFrom(ckpt);
  EXPECT_EQ(resumed.epochs_completed(), 1);
  EXPECT_EQ(resumed.last_determinism_hash(), run.hashes[0]);
  record(resumed.TrainEpoch());
  run.metric = resumed.EvaluateMrr(50, 100);
  std::remove(ckpt.c_str());
  return run;
}

GoldenRun GoldenNcRun(bool use_disk, bool resume = false) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 2;
  if (use_disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 16;
    config.storage.buffer_capacity = 8;
  }
  GoldenRun run;
  if (!resume) {
    NodeClassificationTrainer trainer(&g, config);
    for (int e = 0; e < 2; ++e) {
      run.losses.push_back(trainer.TrainEpoch().loss);
    }
    run.metric = trainer.EvaluateTestAccuracy();
    return run;
  }
  const std::string ckpt = TempPath("mgnn_golden_nc_ckpt");
  {
    NodeClassificationTrainer trainer(&g, config);
    run.losses.push_back(trainer.TrainEpoch().loss);
    trainer.SaveCheckpoint(ckpt);
  }
  NodeClassificationTrainer resumed(&g, config);
  resumed.ResumeFrom(ckpt);
  EXPECT_EQ(resumed.epochs_completed(), 1);
  run.losses.push_back(resumed.TrainEpoch().loss);
  run.metric = resumed.EvaluateTestAccuracy();
  std::remove(ckpt.c_str());
  return run;
}

// MRR constants regenerated when RankOfPositive moved to the average-rank tie
// convention (the losses are untouched: the batch stream did not change).
TEST(GoldenTrajectory, LinkPredictionInMemory) {
  ExpectGolden(GoldenLpRun(false),
               {2.9370360056559246, 2.0135522921880087}, 0.48917109523447394);
}

TEST(GoldenTrajectory, LinkPredictionDisk) {
  ExpectGolden(GoldenLpRun(true),
               {3.0713760495185851, 2.3424148057636462}, 0.4393313931734697);
}

TEST(GoldenTrajectory, NodeClassificationInMemory) {
  ExpectGolden(GoldenNcRun(false),
               {8.0975475311279297, 3.2635064125061035}, 0.34666666666666668);
}

TEST(GoldenTrajectory, NodeClassificationDisk) {
  ExpectGolden(GoldenNcRun(true),
               {8.3907327651977539, 3.291311502456665}, 0.35333333333333333);
}

// Checkpoint-resume must land on the SAME constants as the uninterrupted runs
// above: an epoch-k snapshot restores optimizer/embedding/RNG state exactly, so
// the continuation is bitwise-identical (the strongest checkpoint correctness
// guarantee the determinism contract makes possible).

TEST(GoldenTrajectory, LinkPredictionInMemoryResume) {
  ExpectGolden(GoldenLpRun(false, /*resume=*/true),
               {2.9370360056559246, 2.0135522921880087}, 0.48917109523447394);
}

// Checkpoints from before the adaptive worker controller was deleted carry its
// "controller_workers" / "controller_cooldown" scalars; the manifest reader
// ignores unknown scalar names, so such a file resumes onto the same trajectory.
TEST(GoldenTrajectory, LinkPredictionDiskResume) {
  const std::vector<uint64_t> uninterrupted_hashes = GoldenLpRun(true).hashes;
  for (const bool legacy_scalars : {false, true}) {
    SCOPED_TRACE(legacy_scalars ? "legacy controller scalars" : "current checkpoint");
    const GoldenRun run = GoldenLpRun(true, /*resume=*/true, legacy_scalars);
    ExpectGolden(run,
                 {3.0713760495185851, 2.3424148057636462}, 0.4393313931734697);
    EXPECT_EQ(run.hashes, uninterrupted_hashes);
  }
}

TEST(GoldenTrajectory, NodeClassificationInMemoryResume) {
  ExpectGolden(GoldenNcRun(false, /*resume=*/true),
               {8.0975475311279297, 3.2635064125061035}, 0.34666666666666668);
}

TEST(GoldenTrajectory, NodeClassificationDiskResume) {
  ExpectGolden(GoldenNcRun(true, /*resume=*/true),
               {8.3907327651977539, 3.291311502456665}, 0.35333333333333333);
}

TEST(Metrics, RankOfPositive) {
  EXPECT_EQ(RankOfPositive(1.0f, {0.5f, 0.2f}), 1);
  EXPECT_EQ(RankOfPositive(0.3f, {0.5f, 0.2f}), 2);
  EXPECT_EQ(RankOfPositive(0.1f, {0.5f, 0.2f}), 3);
  // Average-rank tie convention: a positive tied with k negatives ranks
  // 1 + (k + 1) / 2 (half-up), not the truncated k / 2 that gave a positive
  // tied with one negative full credit.
  EXPECT_EQ(RankOfPositive(0.5f, {0.5f, 0.2f}), 2);   // one tie: no full credit
  EXPECT_EQ(RankOfPositive(0.5f, {0.5f, 0.5f}), 2);   // two ties split around it
  EXPECT_EQ(RankOfPositive(0.5f, {0.5f, 0.5f, 0.5f}), 3);
  EXPECT_EQ(RankOfPositive(0.5f, {0.9f, 0.5f}), 3);   // greater + tie combine
}

TEST(Metrics, MrrFromRanks) {
  EXPECT_DOUBLE_EQ(MrrFromRanks({1, 2, 4}), (1.0 + 0.5 + 0.25) / 3.0);
  EXPECT_DOUBLE_EQ(MrrFromRanks({}), 0.0);
}

TEST(Metrics, CostModel) {
  CostModel cost;
  EXPECT_NEAR(cost.CostFor("p3.2xlarge", 3600.0), 3.06, 1e-9);
  EXPECT_NEAR(cost.CostFor("p3.16xlarge", 1800.0), 12.24, 1e-9);
}

// The per-epoch determinism hash (ordered FNV-1a fold of batch-loss bits,
// docs/DETERMINISM.md) must be bit-equal across serial, 8-worker, and
// save/resume runs of the same config — one u64 per epoch subsumes the
// loss/MRR trajectory comparisons above — and no run may trip an RV monitor.

TEST(DeterminismHash, LinkPredictionSerialVs8WorkerVsResume) {
  Graph g = Fb15k237Like(0.05);
  uint64_t serial_hash[2] = {0, 0};
  {
    TrainingConfig config = SmallLpConfig();
    LinkPredictionTrainer serial(&g, config);
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = serial.TrainEpoch();
      serial_hash[e] = stats.determinism_hash;
      EXPECT_EQ(stats.rv_violations, 0u);
    }
  }
  EXPECT_NE(serial_hash[0], 0u);
  EXPECT_NE(serial_hash[0], serial_hash[1]);  // the model moved between epochs

  TrainingConfig config = SmallLpConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 8;
  const std::string ckpt = TempPath("hash_lp_resume");
  {
    LinkPredictionTrainer parallel(&g, config);
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = parallel.TrainEpoch();
      EXPECT_EQ(stats.determinism_hash, serial_hash[e]);
      EXPECT_EQ(stats.rv_violations, 0u);
      if (e == 0) {
        parallel.SaveCheckpoint(ckpt);
      }
    }
    EXPECT_EQ(parallel.last_determinism_hash(), serial_hash[1]);
  }
  {
    LinkPredictionTrainer resumed(&g, config);
    EXPECT_EQ(resumed.last_determinism_hash(), 0u);
    resumed.ResumeFrom(ckpt);
    // The checkpoint manifest carried epoch 1's hash.
    EXPECT_EQ(resumed.last_determinism_hash(), serial_hash[0]);
    const EpochStats stats = resumed.TrainEpoch();
    EXPECT_EQ(stats.determinism_hash, serial_hash[1]);
    EXPECT_EQ(stats.rv_violations, 0u);
  }
  std::remove(ckpt.c_str());
}

TEST(DeterminismHash, LinkPredictionDiskMatchesDiskSerial) {
  // Disk mode partitions the epoch differently from in-memory (its own batch
  // stream), but within the mode the hash must be invariant to pipelining,
  // prefetch, and resume.
  Graph g = Fb15k237Like(0.05);
  auto disk_config = [&](bool pipelined) {
    TrainingConfig config = SmallLpConfig();
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
    config.pipeline.enabled = pipelined;
    config.pipeline.workers = 8;
    config.storage.prefetch = pipelined;
    return config;
  };
  uint64_t serial_hash[2] = {0, 0};
  {
    LinkPredictionTrainer serial(&g, disk_config(false));
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = serial.TrainEpoch();
      serial_hash[e] = stats.determinism_hash;
      EXPECT_EQ(stats.rv_violations, 0u);
    }
  }
  {
    LinkPredictionTrainer parallel(&g, disk_config(true));
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = parallel.TrainEpoch();
      EXPECT_EQ(stats.determinism_hash, serial_hash[e]);
      EXPECT_EQ(stats.rv_violations, 0u);
    }
  }
}

TEST(DeterminismHash, NodeClassificationSerialVs8WorkerVsResume) {
  Graph g = PapersMini(0.08);
  uint64_t serial_hash[2] = {0, 0};
  {
    TrainingConfig config = SmallNcConfig();
    NodeClassificationTrainer serial(&g, config);
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = serial.TrainEpoch();
      serial_hash[e] = stats.determinism_hash;
      EXPECT_EQ(stats.rv_violations, 0u);
    }
  }
  EXPECT_NE(serial_hash[0], 0u);

  TrainingConfig config = SmallNcConfig();
  config.pipeline.enabled = true;
  config.pipeline.workers = 8;
  const std::string ckpt = TempPath("hash_nc_resume");
  {
    NodeClassificationTrainer parallel(&g, config);
    for (int e = 0; e < 2; ++e) {
      const EpochStats stats = parallel.TrainEpoch();
      EXPECT_EQ(stats.determinism_hash, serial_hash[e]);
      EXPECT_EQ(stats.rv_violations, 0u);
      if (e == 0) {
        parallel.SaveCheckpoint(ckpt);
      }
    }
  }
  {
    NodeClassificationTrainer resumed(&g, config);
    resumed.ResumeFrom(ckpt);
    EXPECT_EQ(resumed.last_determinism_hash(), serial_hash[0]);
    const EpochStats stats = resumed.TrainEpoch();
    EXPECT_EQ(stats.determinism_hash, serial_hash[1]);
    EXPECT_EQ(stats.rv_violations, 0u);
  }
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace mariusgnn
