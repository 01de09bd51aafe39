// Serving bench: latency/throughput of the online inference tier.
//
// A small link-prediction model is trained and checkpointed, then served at
// 1/8/64 concurrent clients in three embedding-storage modes: memory (mmapped
// snapshot), disk (LRU block cache over the checkpoint file, large enough to
// hold the whole table after warm-up) and disk_quarter (the cache holds about
// a quarter of the table, as in perfbench's lp-disk, so every query runs the
// eviction path). Each client issues a fixed number of queries and records
// per-query wall latency; the table reports p50/p99 and aggregate QPS per
// configuration, plus how far the leader-follower batcher coalesced under load.
// Correctness is asserted, not just timed: before timing, the first few
// queries of every configuration are checked bitwise against the serial
// unbatched oracle and against the memory-mode answers, and the bench exits
// nonzero on any mismatch — a perf artifact from a wrong server would be worse
// than none.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"

using namespace mariusgnn;
using namespace mariusgnn::bench;

namespace {

constexpr int kTrainEpochs = 2;
constexpr int kQueriesPerClient = 64;
constexpr int kCandidatesPerQuery = 100;
constexpr int kGateQueries = 8;
constexpr int64_t kCacheBlockRows = 256;

// One embedding-storage mode of the table.
struct ServingMode {
  std::string name;
  bool disk_backed = false;
  int64_t cache_capacity_blocks = 0;
};

struct ServingRow {
  std::string mode;  // "memory", "disk" or "disk_quarter"
  std::string name;  // "clients_1", "clients_8", "clients_64"
  int clients = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  uint64_t queries = 0;
  uint64_t batches = 0;
  int64_t max_coalesced = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t rv_violations = 0;  // serve.epoch_pin breaches (must be 0)
};

std::vector<ServingRow>& Rows() {
  static std::vector<ServingRow> rows;
  return rows;
}

struct LinkQuery {
  int64_t src;
  int32_t rel;
  std::vector<int64_t> candidates;
};

std::vector<LinkQuery> MakeQueries(const Graph& g, int count) {
  std::vector<LinkQuery> queries;
  for (int q = 0; q < count; ++q) {
    LinkQuery lq;
    lq.src = (static_cast<int64_t>(q) * 97 + 13) % g.num_nodes();
    lq.rel = static_cast<int32_t>(q % g.num_relations());
    for (int j = 0; j < kCandidatesPerQuery; ++j) {
      lq.candidates.push_back((lq.src + 31 * (j + 1)) % g.num_nodes());
    }
    queries.push_back(std::move(lq));
  }
  return queries;
}

double Percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(p * (sorted_ms.size() - 1));
  return sorted_ms[idx];
}

// One (mode, clients) configuration: fresh server so cache and coalescing
// stats describe exactly this run. `memory_answers` holds the memory-mode
// oracle's scores for the first kGateQueries queries.
bool RunConfig(const Graph& g, const TrainingConfig& config,
               const std::string& ckpt, const ServingMode& mode, int clients,
               const std::vector<LinkQuery>& queries,
               const std::vector<std::vector<float>>& memory_answers) {
  ServeOptions options;
  options.snapshot.disk_backed = mode.disk_backed;
  options.snapshot.cache_block_rows = kCacheBlockRows;
  options.snapshot.cache_capacity_blocks = mode.cache_capacity_blocks;
  InferenceServer server(&g, TaskKind::kLinkPrediction, config.model_config(),
                         options);
  std::string error;
  if (!server.LoadSnapshot(ckpt, &error)) {
    std::printf("FAIL: %s\n", error.c_str());
    return false;
  }

  // Determinism gate: batched must equal this server's serial oracle and the
  // memory-mode answer bitwise.
  for (size_t q = 0; q < memory_answers.size(); ++q) {
    const LinkQuery& lq = queries[q];
    const ServeResult got = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
    const ServeResult want =
        server.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates);
    if (got.values != want.values) {
      std::printf("FAIL: batched scores diverge from the serial oracle (%s)\n",
                  mode.name.c_str());
      return false;
    }
    if (got.values != memory_answers[q]) {
      std::printf("FAIL: %s scores diverge from the memory-mode answer (query %zu)\n",
                  mode.name.c_str(), q);
      return false;
    }
  }

  std::vector<std::vector<double>> latencies(clients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(kQueriesPerClient);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const LinkQuery& lq =
            queries[static_cast<size_t>(c * kQueriesPerClient + q) % queries.size()];
        const auto q0 = std::chrono::steady_clock::now();
        const ServeResult r = server.ScoreLinks(lq.src, lq.rel, lq.candidates);
        const auto q1 = std::chrono::steady_clock::now();
        if (r.values.size() != lq.candidates.size()) {
          std::abort();  // dropped or truncated answer: never acceptable
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(q1 - q0).count());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<double> all;
  for (const auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());

  const ServerStats stats = server.stats();
  ServingRow row;
  row.mode = mode.name;
  row.name = "clients_" + std::to_string(clients);
  row.clients = clients;
  row.p50_ms = Percentile(all, 0.50);
  row.p99_ms = Percentile(all, 0.99);
  row.qps = wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0;
  row.queries = stats.queries;
  row.batches = stats.batches;
  row.max_coalesced = stats.max_coalesced;
  row.cache_hits = stats.cache.hits;
  row.cache_misses = stats.cache.misses;
  row.cache_evictions = stats.cache.evictions;
  row.rv_violations = stats.rv_violations;
  Rows().push_back(row);
  if (stats.rv_violations != 0) {
    std::printf("FAIL: %llu serve.epoch_pin RV violations (%s, %d clients)\n",
                static_cast<unsigned long long>(stats.rv_violations),
                row.mode.c_str(), clients);
    return false;
  }

  std::printf(
      "%-12s  %3d clients  p50 %7.3f ms  p99 %7.3f ms  %8.1f qps  "
      "batches %5llu  max coalesced %3lld  cache h/m/e %llu/%llu/%llu\n",
      row.mode.c_str(), clients, row.p50_ms, row.p99_ms, row.qps,
      static_cast<unsigned long long>(row.batches),
      static_cast<long long>(row.max_coalesced),
      static_cast<unsigned long long>(row.cache_hits),
      static_cast<unsigned long long>(row.cache_misses),
      static_cast<unsigned long long>(row.cache_evictions));
  return true;
}

void WriteJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("WARN: could not open %s for writing\n", path.c_str());
    return;
  }
  const std::vector<ServingRow>& rows = Rows();
  std::fprintf(f, "{\n  \"bench\": \"serving\",\n  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ServingRow& r = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"name\": \"%s\", \"clients\": %d, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"qps\": %.2f, "
                 "\"queries\": %llu, \"batches\": %llu, \"max_coalesced\": %lld, "
                 "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                 "\"cache_evictions\": %llu, \"rv_violations\": %llu}%s\n",
                 r.mode.c_str(), r.name.c_str(), r.clients, r.p50_ms, r.p99_ms,
                 r.qps, static_cast<unsigned long long>(r.queries),
                 static_cast<unsigned long long>(r.batches),
                 static_cast<long long>(r.max_coalesced),
                 static_cast<unsigned long long>(r.cache_hits),
                 static_cast<unsigned long long>(r.cache_misses),
                 static_cast<unsigned long long>(r.cache_evictions),
                 static_cast<unsigned long long>(r.rv_violations),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
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
  PrintHeader("Serving: batched concurrent inference over checkpoint snapshots");

  Graph graph = Fb15k237Like(0.1);
  TrainingConfig config;
  config.fanouts = {10};
  config.dims = {32, 32};
  config.batch_size = 1000;
  config.num_negatives = 64;
  config.pipeline.enabled = false;
  config.pipeline.parallel_compute = false;
  std::printf("FB15k-237-like scale=0.1: %lld nodes, %lld edges, %d train epochs\n",
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()), kTrainEpochs);

  LinkPredictionTrainer trainer(&graph, config);
  for (int e = 0; e < kTrainEpochs; ++e) {
    trainer.TrainEpoch();
  }
  const std::string ckpt = TempPath("mgnn_bench_serving");
  trainer.SaveCheckpoint(ckpt);

  const std::vector<LinkQuery> queries = MakeQueries(graph, 256);
  std::vector<std::vector<float>> memory_answers;
  {
    InferenceServer memory(&graph, TaskKind::kLinkPrediction, config.model_config(),
                           ServeOptions());
    std::string error;
    if (!memory.LoadSnapshot(ckpt, &error)) {
      std::printf("FAIL: %s\n", error.c_str());
      return 1;
    }
    for (int q = 0; q < kGateQueries; ++q) {
      const LinkQuery& lq = queries[static_cast<size_t>(q)];
      memory_answers.push_back(
          memory.ScoreLinksUnbatched(lq.src, lq.rel, lq.candidates).values);
    }
  }
  const int64_t quarter_blocks = std::max<int64_t>(
      1, (graph.num_nodes() / 4 + kCacheBlockRows - 1) / kCacheBlockRows);
  const std::vector<ServingMode> modes = {
      {"memory", false, 64}, {"disk", true, 64}, {"disk_quarter", true, quarter_blocks}};
  bool ok = true;
  for (const ServingMode& mode : modes) {
    for (const int clients : {1, 8, 64}) {
      ok = RunConfig(graph, config, ckpt, mode, clients, queries, memory_answers) && ok;
    }
  }
  if (!json_path.empty()) {
    WriteJson(json_path);
  }
  std::remove(ckpt.c_str());
  if (!ok) {
    std::printf("\nFAIL: serving diverged from the serial oracle or the memory-mode answer\n");
  }
  return ok ? 0 : 1;
}
