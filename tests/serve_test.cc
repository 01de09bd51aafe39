// Serving-tier tests: the batched concurrent path must answer bitwise-
// identically to serial single-query evaluation (the determinism contract of
// src/serve/server.h), hot snapshot swaps must never drop a request or mix
// epochs within one answer, disk-backed LRU serving must match memory-backed
// serving bit for bit, and unpadded format-v1 checkpoints must stay servable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/link_prediction_trainer.h"
#include "src/core/node_classification_trainer.h"
#include "src/data/datasets.h"
#include "src/serve/server.h"
#include "src/util/binary_io.h"
#include "src/util/rng.h"

namespace mariusgnn {
namespace {

TrainingConfig SmallLpConfig() {
  TrainingConfig config;
  config.fanouts = {5};
  config.dims = {16, 16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = false;
  config.pipeline.parallel_compute = false;
  return config;
}

TrainingConfig SmallNcConfig() {
  TrainingConfig config;
  config.fanouts = {10, 5};
  config.dims = {64, 32, 32};
  config.batch_size = 256;
  config.pipeline.enabled = false;
  config.pipeline.parallel_compute = false;
  config.weight_lr = 0.05f;
  return config;
}

// Trains a small LP model and writes its checkpoint; returns the path.
std::string TrainLpCheckpoint(const Graph& g, const TrainingConfig& config,
                              int epochs, const char* tag) {
  LinkPredictionTrainer trainer(&g, config);
  for (int e = 0; e < epochs; ++e) {
    trainer.TrainEpoch();
  }
  const std::string path = TempPath(tag);
  trainer.SaveCheckpoint(path);
  return path;
}

// A few link queries spread over the node-id range, each scoring `fan`
// candidates (with a deliberate duplicate to exercise target dedup).
struct LinkQuery {
  int64_t src;
  int32_t rel;
  std::vector<int64_t> candidates;
};

std::vector<LinkQuery> MakeLinkQueries(const Graph& g, int count, int fan) {
  std::vector<LinkQuery> queries;
  for (int q = 0; q < count; ++q) {
    LinkQuery lq;
    lq.src = (static_cast<int64_t>(q) * 37 + 3) % g.num_nodes();
    lq.rel = static_cast<int32_t>(q % g.num_relations());
    for (int j = 0; j < fan; ++j) {
      lq.candidates.push_back((lq.src + 11 * (j + 1)) % g.num_nodes());
    }
    lq.candidates.push_back(lq.candidates.front());  // duplicate candidate
    lq.candidates.push_back(lq.src);                 // src as its own candidate
    queries.push_back(std::move(lq));
  }
  return queries;
}

void ExpectBitwiseEqual(const std::vector<float>& got,
                        const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "value " << i;
  }
}

TEST(Serve, BatchedMatchesUnbatchedLinkPrediction) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  const std::string path = TrainLpCheckpoint(g, config, 2, "mgnn_serve_lp");

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;
  EXPECT_EQ(server.current_epoch(), 2u);

  const std::vector<LinkQuery> queries = MakeLinkQueries(g, 24, 16);

  // Single-threaded: each ScoreLinks is a batch of one through the
  // block-diagonal merge path; the oracle runs the direct per-query forward.
  for (const LinkQuery& lq : queries) {
    const ServeResult got = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    const ServeResult want =
        server.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates);
    EXPECT_EQ(got.epoch, 2u);
    ExpectBitwiseEqual(got.values, want.values);
  }

  // Concurrent: the same queries from many client threads coalesce into larger
  // batches; every answer must still match the serial oracle bitwise.
  std::vector<ServeResult> results(queries.size());
  std::vector<std::thread> clients;
  for (size_t q = 0; q < queries.size(); ++q) {
    clients.emplace_back([&, q] {
      results[q] = server.ScoreLinks(queries[q].src, queries[q].rel,
                                     queries[q].candidates);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    const ServeResult want = server.ScoreLinksUnbatched(
        queries[q].src, queries[q].rel, queries[q].candidates);
    ExpectBitwiseEqual(results[q].values, want.values);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, 2 * queries.size());
  EXPECT_GE(stats.max_coalesced, 1);
  std::remove(path.c_str());
}

TEST(Serve, BatchedMatchesUnbatchedNodeClassification) {
  Graph g = PapersMini(0.05);
  TrainingConfig config = SmallNcConfig();
  NodeClassificationTrainer trainer(&g, config);
  trainer.TrainEpoch();
  const std::string path = TempPath("mgnn_serve_nc");
  trainer.SaveCheckpoint(path);

  InferenceServer server(&g, TaskKind::kNodeClassification, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;

  std::vector<int64_t> nodes(g.test_nodes().begin(),
                             g.test_nodes().begin() +
                                 std::min<size_t>(24, g.test_nodes().size()));
  for (int64_t node : nodes) {
    const ServeResult got = server.Classify(node);
    const ServeResult want = server.ClassifyUnbatched(node);
    EXPECT_EQ(got.epoch, 1u);
    ASSERT_EQ(static_cast<int64_t>(got.values.size()), g.num_classes());
    ExpectBitwiseEqual(got.values, want.values);
  }

  std::vector<ServeResult> results(nodes.size());
  std::vector<std::thread> clients;
  for (size_t q = 0; q < nodes.size(); ++q) {
    clients.emplace_back([&, q] { results[q] = server.Classify(nodes[q]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t q = 0; q < nodes.size(); ++q) {
    ExpectBitwiseEqual(results[q].values,
                       server.ClassifyUnbatched(nodes[q]).values);
  }
  std::remove(path.c_str());
}

TEST(Serve, DecoderOnlyLinkPrediction) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.fanouts = {};
  config.dims = {16};
  const std::string path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_lp_dec");

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;
  for (const LinkQuery& lq : MakeLinkQueries(g, 8, 8)) {
    const ServeResult got = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    ExpectBitwiseEqual(
        got.values,
        server.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates).values);
  }
  std::remove(path.c_str());
}

TEST(Serve, LayerwiseModelServes) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  config.sampler = SamplerKind::kLayerwise;
  const std::string path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_lp_lw");

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(server.LoadSnapshot(path, &error)) << error;
  for (const LinkQuery& lq : MakeLinkQueries(g, 6, 8)) {
    const ServeResult got = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    ExpectBitwiseEqual(
        got.values,
        server.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates).values);
  }
  std::remove(path.c_str());
}

TEST(Serve, DiskBackedLruMatchesMemoryBacked) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  const std::string path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_lru");

  InferenceServer mem_server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  ServeOptions disk_options;
  disk_options.snapshot.disk_backed = true;
  disk_options.snapshot.cache_block_rows = 64;
  disk_options.snapshot.cache_capacity_blocks = 2;  // tiny: force evictions
  InferenceServer disk_server(&g, TaskKind::kLinkPrediction, config.model_config(),
                              disk_options);
  std::string error;
  ASSERT_TRUE(mem_server.LoadSnapshot(path, &error)) << error;
  ASSERT_TRUE(disk_server.LoadSnapshot(path, &error)) << error;

  for (const LinkQuery& lq : MakeLinkQueries(g, 32, 16)) {
    const ServeResult mem = mem_server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    const ServeResult disk = disk_server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    ExpectBitwiseEqual(disk.values, mem.values);
  }
  const ServerStats stats = disk_server.stats();
  EXPECT_GT(stats.cache.misses, 0u);
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_GT(stats.cache.evictions, 0u);
  std::remove(path.c_str());
}

// EmbeddingSource level: a shuffled gather with duplicates that touches every
// block, through a cache too small to hold them all, must match the mmapped
// source bit for bit and read each distinct block exactly once per cold call.
TEST(Serve, DiskGatherReadsEachBlockOncePerCall) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  const std::string path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_gather");
  CheckpointManifest manifest;
  std::string error;
  ASSERT_TRUE(ReadCheckpointManifest(path, &manifest, &error)) << error;
  const CheckpointSectionInfo* section = manifest.FindSection("embeddings.values");
  ASSERT_NE(section, nullptr);

  SnapshotOptions options;
  options.disk_backed = true;
  options.cache_block_rows = 64;
  options.cache_capacity_blocks = 3;
  const int64_t num_blocks =
      (section->rows + options.cache_block_rows - 1) / options.cache_block_rows;
  ASSERT_GT(num_blocks, options.cache_capacity_blocks);
  std::unique_ptr<EmbeddingSource> mapped =
      EmbeddingSource::OpenMapped(path, *section, manifest.aligned_sections, &error);
  ASSERT_NE(mapped, nullptr) << error;
  std::unique_ptr<EmbeddingSource> disk =
      EmbeddingSource::OpenDiskLru(path, *section, options, &error);
  ASSERT_NE(disk, nullptr) << error;

  // Every row once, every third row again, then shuffled.
  std::vector<int64_t> nodes;
  for (int64_t r = 0; r < section->rows; ++r) {
    nodes.push_back(r);
  }
  for (int64_t r = 0; r < section->rows; r += 3) {
    nodes.push_back(r);
  }
  Rng rng(17);
  rng.Shuffle(nodes);
  const uint64_t n = nodes.size();

  const Tensor want = mapped->Gather(nodes, nullptr);
  const Tensor got = disk->Gather(nodes, nullptr);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(want.size()) * sizeof(float)),
            0);
  CacheStats stats = disk->cache_stats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(num_blocks));
  EXPECT_EQ(stats.hits + stats.misses, n);
  EXPECT_EQ(stats.evictions,
            static_cast<uint64_t>(num_blocks - options.cache_capacity_blocks));

  // A warm repeat still counts every row once and reads each block at most once.
  const Tensor again = disk->Gather(nodes, nullptr);
  EXPECT_EQ(std::memcmp(again.data(), want.data(),
                        static_cast<size_t>(want.size()) * sizeof(float)),
            0);
  stats = disk->cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 2 * n);
  EXPECT_LE(stats.misses, static_cast<uint64_t>(2 * num_blocks));
  std::remove(path.c_str());
}

// Serializes a checkpoint in the pre-alignment v1 layout (tightly packed
// sections, version 1) — the files old runs left behind.
void WriteV1Checkpoint(const Checkpoint& ck, const std::string& path) {
  auto fnv = [](const std::vector<char>& b) {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : b) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001B3ULL;
    }
    return h;
  };
  auto put = [](std::vector<char>& b, const void* src, size_t len) {
    const char* p = static_cast<const char*>(src);
    b.insert(b.end(), p, p + len);
  };
  auto put_u32 = [&](std::vector<char>& b, uint32_t v) { put(b, &v, 4); };
  auto put_u64 = [&](std::vector<char>& b, uint64_t v) { put(b, &v, 8); };
  auto put_i64 = [&](std::vector<char>& b, int64_t v) { put(b, &v, 8); };
  auto put_str = [&](std::vector<char>& b, const std::string& s) {
    put_u32(b, static_cast<uint32_t>(s.size()));
    put(b, s.data(), s.size());
  };

  std::vector<char> manifest;
  put(manifest, ck.kind.data(), ck.kind.size());
  put_u64(manifest, ck.run_seed);
  put_u64(manifest, ck.epoch);
  for (uint64_t w : ck.rng_state) {
    put_u64(manifest, w);
  }
  put_u32(manifest, static_cast<uint32_t>(ck.scalars.size()));
  for (const auto& [name, value] : ck.scalars) {
    put_str(manifest, name);
    put_i64(manifest, value);
  }
  put_u32(manifest, static_cast<uint32_t>(ck.tensors.size()));
  std::vector<char> data;
  for (const auto& [name, t] : ck.tensors) {
    put_str(manifest, name);
    put_i64(manifest, t.rows());
    put_i64(manifest, t.cols());
    put_u64(manifest, data.size());  // tight v1 offsets, no padding
    put_u64(manifest, static_cast<uint64_t>(t.size()) * sizeof(float));
    if (t.size() > 0) {
      put(data, t.data(), static_cast<size_t>(t.size()) * sizeof(float));
    }
  }

  std::vector<char> file;
  put_u64(file, 0x4D474E4E43503031ULL);  // magic
  put_u32(file, 1);                      // version 1
  put_u32(file, static_cast<uint32_t>(ck.kind.size()));
  put_u64(file, manifest.size());
  put_u64(file, fnv(manifest));
  put_u64(file, data.size());
  put_u64(file, fnv(data));
  file.insert(file.end(), manifest.begin(), manifest.end());
  file.insert(file.end(), data.begin(), data.end());

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

TEST(Serve, ServesUnpaddedV1Checkpoints) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  const std::string v2_path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_v2");

  // Down-convert the real checkpoint to the v1 layout; the server must fall
  // back from mmap views to the owned-copy load and answer identically.
  Checkpoint ck;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(v2_path, &ck, &error)) << error;
  const std::string v1_path = TempPath("mgnn_serve_v1");
  WriteV1Checkpoint(ck, v1_path);

  InferenceServer v2_server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  InferenceServer v1_server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  ASSERT_TRUE(v2_server.LoadSnapshot(v2_path, &error)) << error;
  ASSERT_TRUE(v1_server.LoadSnapshot(v1_path, &error)) << error;

  for (const LinkQuery& lq : MakeLinkQueries(g, 8, 8)) {
    ExpectBitwiseEqual(
        v1_server.ScoreLinks(lq.src, lq.rel, lq.candidates).values,
        v2_server.ScoreLinks(lq.src, lq.rel, lq.candidates).values);
  }
  std::remove(v2_path.c_str());
  std::remove(v1_path.c_str());
}

TEST(Serve, LoadSnapshotRejectsMismatches) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();
  const std::string path = TrainLpCheckpoint(g, config, 1, "mgnn_serve_rej");

  std::string error;
  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  EXPECT_FALSE(server.LoadSnapshot(path + ".does_not_exist", &error));

  // A config with different dims must be rejected by section-shape validation.
  ModelConfig wrong = config.model_config();
  wrong.dims = {32, 32};
  InferenceServer wrong_server(&g, TaskKind::kLinkPrediction, wrong, {});
  EXPECT_FALSE(wrong_server.LoadSnapshot(path, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// Hot swap under load: clients hammer the server while the main thread adopts
// a new epoch mid-stream. Every request must be answered (zero drops), every
// answer must carry exactly one epoch tag, and its values must match that
// epoch's serial oracle — no torn or mixed-epoch results. This test is the
// TSan gate for the serving tier.
TEST(Serve, HotSwapUnderLoad) {
  Graph g = Fb15k237Like(0.05);
  TrainingConfig config = SmallLpConfig();

  LinkPredictionTrainer trainer(&g, config);
  trainer.TrainEpoch();
  const std::string ck1 = TempPath("mgnn_serve_swap1");
  trainer.SaveCheckpoint(ck1);
  trainer.TrainEpoch();
  const std::string ck2 = TempPath("mgnn_serve_swap2");
  trainer.SaveCheckpoint(ck2);

  // Per-epoch oracles from single-snapshot servers.
  InferenceServer ref1(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  InferenceServer ref2(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  std::string error;
  ASSERT_TRUE(ref1.LoadSnapshot(ck1, &error)) << error;
  ASSERT_TRUE(ref2.LoadSnapshot(ck2, &error)) << error;

  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(), {});
  ASSERT_TRUE(server.LoadSnapshot(ck1, &error)) << error;

  const std::vector<LinkQuery> queries = MakeLinkQueries(g, 8, 8);
  constexpr int kClients = 8;
  constexpr int kRoundsPerClient = 12;
  std::vector<std::vector<ServeResult>> results(
      kClients, std::vector<ServeResult>(kRoundsPerClient));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const LinkQuery& lq = queries[static_cast<size_t>(c) % queries.size()];
      for (int r = 0; r < kRoundsPerClient; ++r) {
        results[c][r] = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
      }
    });
  }
  // Swap to epoch 2 while the clients are mid-flight.
  ASSERT_TRUE(server.LoadSnapshot(ck2, &error)) << error;
  for (std::thread& t : clients) {
    t.join();
  }

  for (int c = 0; c < kClients; ++c) {
    const LinkQuery& lq = queries[static_cast<size_t>(c) % queries.size()];
    const ServeResult want1 = ref1.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates);
    const ServeResult want2 = ref2.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates);
    for (int r = 0; r < kRoundsPerClient; ++r) {
      const ServeResult& got = results[c][r];
      ASSERT_TRUE(got.epoch == 1u || got.epoch == 2u) << "epoch " << got.epoch;
      ExpectBitwiseEqual(got.values,
                         got.epoch == 1u ? want1.values : want2.values);
    }
  }
  // Zero drops: every request produced a full candidate vector (checked above);
  // the server counted them all and performed exactly one swap.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kClients) * kRoundsPerClient);
  EXPECT_EQ(stats.snapshot_swaps, 1u);
  EXPECT_EQ(server.current_epoch(), 2u);
  const LinkQuery& lq = queries.front();
  EXPECT_EQ(server.ScoreLinks(lq.src, lq.rel, lq.candidates).epoch, 2u);
  std::remove(ck1.c_str());
  std::remove(ck2.c_str());
}

}  // namespace
}  // namespace mariusgnn
