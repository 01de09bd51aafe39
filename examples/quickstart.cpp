// Quickstart: train a 1-layer GraphSage + DistMult link-prediction model on an
// FB15k-237-like knowledge graph, fully in memory, report MRR per epoch, and
// finish with a checkpoint save → resume roundtrip (the resumed trainer must
// reproduce the original's MRR bit-for-bit).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart
#include <cstdio>

#include "src/core/mariusgnn.h"
#include "src/util/binary_io.h"

using namespace mariusgnn;

int main() {
  // 1. Load (generate) a knowledge graph: ~14.5k nodes, ~270k edges, 237 relations.
  Graph graph = Fb15k237Like(/*scale=*/0.25);
  std::printf("graph: %lld nodes, %lld edges, %d relations\n",
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()), graph.num_relations());

  // 2. Configure a 1-layer GraphSage encoder (fanout 20, both edge directions) with a
  //    DistMult decoder — the paper's link-prediction setup (Section 7.1).
  TrainingConfig config;
  config.layer_type = GnnLayerType::kGraphSage;
  config.fanouts = {20};
  config.dims = {32, 32};
  config.decoder = "distmult";
  config.batch_size = 1000;
  config.num_negatives = 64;

  // 3. Train and evaluate. One stage-1 sampling worker (the default) builds
  //    batches ahead of compute; queue_occ is how full it kept the pipeline
  //    queue (fraction of capacity, time-weighted).
  LinkPredictionTrainer trainer(&graph, config);
  for (int epoch = 1; epoch <= 5; ++epoch) {
    const EpochStats stats = trainer.TrainEpoch();
    const double mrr = trainer.EvaluateMrr(/*num_negatives=*/200, /*max_edges=*/500);
    std::printf("epoch %d: loss=%.4f  time=%.2fs  MRR=%.4f  queue_occ=%.2f  "
                "hash=%016llx  rv=%llu\n",
                epoch, stats.loss, stats.wall_seconds, mrr, stats.queue_occupancy_mean,
                static_cast<unsigned long long>(stats.determinism_hash),
                static_cast<unsigned long long>(stats.rv_violations));
  }

  // 4. Crash-safe checkpointing: snapshot the run (parameters + Adagrad state +
  //    embedding table + RNG), restore it into a fresh trainer, and verify the
  //    resumed run is bitwise-identical — the checkpoint layer's core guarantee.
  const std::string ckpt = TempPath("mgnn_quickstart_ckpt");
  trainer.SaveCheckpoint(ckpt);
  const double mrr_before = trainer.EvaluateMrr(200, 500);
  LinkPredictionTrainer resumed(&graph, config);
  resumed.ResumeFrom(ckpt);
  const double mrr_after = resumed.EvaluateMrr(200, 500);
  std::printf("checkpoint roundtrip: epoch=%lld  MRR %.6f -> %.6f  %s\n",
              static_cast<long long>(resumed.epochs_completed()), mrr_before,
              mrr_after, mrr_before == mrr_after ? "bitwise-identical" : "DIVERGED");
  std::remove(ckpt.c_str());
  if (mrr_before != mrr_after) {
    return 1;
  }

  // 5. Determinism-hash smoke (docs/DETERMINISM.md): every epoch's hash is an
  //    ordered fold of its batch-loss bits, so a serial run, an 8-worker
  //    pipelined run, and a save/resume run of the same config must produce
  //    bit-equal per-epoch hashes — one u64 comparison per epoch proves the
  //    whole batch stream was identical. RV violations must stay 0 throughout.
  Graph small = Fb15k237Like(/*scale=*/0.1);
  TrainingConfig hash_config = config;
  constexpr int kHashEpochs = 2;
  uint64_t serial_hash[kHashEpochs];
  uint64_t rv_total = 0;
  {
    TrainingConfig serial_config = hash_config;
    serial_config.pipeline.enabled = false;
    LinkPredictionTrainer serial(&small, serial_config);
    for (int e = 0; e < kHashEpochs; ++e) {
      const EpochStats stats = serial.TrainEpoch();
      serial_hash[e] = stats.determinism_hash;
      rv_total += stats.rv_violations;
    }
  }
  bool hashes_ok = true;
  {
    TrainingConfig parallel_config = hash_config;
    parallel_config.pipeline.enabled = true;
    parallel_config.pipeline.workers = 8;
    LinkPredictionTrainer parallel(&small, parallel_config);
    const std::string mid = TempPath("mgnn_quickstart_hash_ckpt");
    for (int e = 0; e < kHashEpochs; ++e) {
      const EpochStats stats = parallel.TrainEpoch();
      hashes_ok = hashes_ok && stats.determinism_hash == serial_hash[e];
      rv_total += stats.rv_violations;
      if (e == 0) {
        parallel.SaveCheckpoint(mid);
      }
    }
    // Resume from the epoch-1 checkpoint and re-run epoch 2: same hash again,
    // and the checkpoint carried epoch 1's hash in its manifest.
    LinkPredictionTrainer resumed_run(&small, parallel_config);
    resumed_run.ResumeFrom(mid);
    hashes_ok = hashes_ok && resumed_run.last_determinism_hash() == serial_hash[0];
    const EpochStats stats = resumed_run.TrainEpoch();
    hashes_ok = hashes_ok && stats.determinism_hash == serial_hash[1];
    rv_total += stats.rv_violations;
    std::remove(mid.c_str());
  }
  std::printf("determinism hashes (serial vs 8-worker vs resumed): %s, rv=%llu\n",
              hashes_ok ? "bit-equal" : "DIVERGED",
              static_cast<unsigned long long>(rv_total));
  return hashes_ok && rv_total == 0 ? 0 : 1;
}
