#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "src/data/serialize.h"

namespace perfbench {

using namespace mariusgnn;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// lp-mem trains the FB15k-237-like graph in memory; lp-disk trains the
// sparser FreebaseMini shape out of core with a quarter of its partitions
// resident. The scales keep an epoch under a second on a 4-vCPU host, so a run
// times a dozen or more epochs and their median outlasts a short slow spell
// of the host.
const WorkloadSpec kWorkloads[] = {
    // name, out_of_core, scale
    {"lp-mem", false, 0.1},
    {"lp-disk", true, 0.06},
};

constexpr double kTinyScale = 0.02;
// Timed epochs, each followed by kServePerEpoch times its wall time of
// one-client serving, run for kBudgetShare of --seconds.
constexpr double kBudgetShare = 0.85;
constexpr double kServePerEpoch = 0.7;
constexpr double kSetupShare = 0.05;  // of --seconds, repeated setups (at least 31)
constexpr int kMinSetupReps = 31;
constexpr int kMaxSetupReps = 301;
constexpr int64_t kMinServedQueries = 1000;  // p99 needs 10 samples beyond it
constexpr int64_t kRecheckPerClient = 16;  // answers re-scored unbatched
constexpr int64_t kReplayQueries = 32;
constexpr int64_t kEvalNegatives = 500;  // EvaluateMrr's default
constexpr int64_t kCandidates = 100;     // as in bench/bench_serving.cc
// A traced run records no spans in every other slice of the serving window,
// so trace.overhead_frac compares throughput with and without spans.
constexpr double kTraceSliceS = 0.25;
// A traced run also serves kBatcherClients clients (= cores of a 4-vCPU host)
// for kBatcherShare of the serving window, so the leader-follower batcher
// coalesces; those figures are per-layer only.
constexpr int kBatcherClients = 4;
constexpr double kBatcherShare = 0.5;
constexpr int kTracedCheckpointReps = 5;
// mrr is evaluated after a fixed number of timed epochs, so it stays
// comparable between commits; further epochs run while the training budget
// lasts and only add samples to epoch_s.
constexpr int64_t kMrrEpochs = 12;
constexpr int64_t kMaxTimedEpochs = 60;

void MakeDir(const std::string& path) { ::mkdir(path.c_str(), 0755); }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// MRR of a scorer that ranks the positive uniformly among n negatives (the
// average-rank tie convention makes every rank 1..n+1 equally likely).
double RandomRankingMrr(int64_t negatives) {
  double sum = 0.0;
  for (int64_t k = 1; k <= negatives + 1; ++k) {
    sum += 1.0 / static_cast<double>(k);
  }
  return sum / static_cast<double>(negatives + 1);
}

struct LinkQuery {
  int64_t src = 0;
  int32_t rel = 0;
  std::vector<int64_t> candidates;
};

// Queries drawn from the graph's held-out (test and validation) edges: each
// asks for the source and relation of one held-out edge and scores its true
// destination together with the destinations of other held-out edges. The
// generator gives node popularity a Zipf distribution and relations Zipf(1)
// frequencies, so sources, relations and candidates carry the served graph's
// own skew.
class QueryStream {
 public:
  explicit QueryStream(const Graph& graph) : graph_(graph) {
    held_out_ = graph.test_edges();
    held_out_.insert(held_out_.end(), graph.valid_edges().begin(),
                     graph.valid_edges().end());
    if (held_out_.empty()) {
      std::fprintf(stderr, "the graph has no held-out edges to query\n");
      std::exit(1);
    }
  }

  LinkQuery Next(Rng& rng) const {
    const Edge& edge = Pick(rng);
    LinkQuery q;
    q.src = edge.src;
    q.rel = edge.rel;
    q.candidates.reserve(static_cast<size_t>(kCandidates));
    q.candidates.push_back(edge.dst);
    while (static_cast<int64_t>(q.candidates.size()) < kCandidates) {
      q.candidates.push_back(Pick(rng).dst);
    }
    return q;
  }

 private:
  const Edge& Pick(Rng& rng) const {
    const int64_t n = static_cast<int64_t>(held_out_.size());
    return graph_.edge(held_out_[static_cast<size_t>(rng.UniformInt(0, n))]);
  }

  const Graph& graph_;
  std::vector<int64_t> held_out_;
};

// Value at quantile p of sorted samples (nearest rank).
double Quantile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size()))) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// p99 when there are enough samples for 10 beyond it, else the highest
// quantile that still has 10 beyond it.
double TailQuantile(size_t samples) {
  if (samples >= static_cast<size_t>(kMinServedQueries)) {
    return 0.99;
  }
  return samples > 10 ? static_cast<double>(samples - 10) /
                            static_cast<double>(samples)
                      : 0.5;
}

struct Completion {
  double start_s = 0.0;  // since the start of the serving window
  double done_s = 0.0;
  double latency_ms = 0.0;
};

// Latency quantiles of the closed loop: the p50 of every completion, and the
// tail as the median over consecutive windows of kMinServedQueries
// completions (one window when fewer completed), so one scheduler hiccup
// moves one window's tail rather than the run's.
struct LatencySummary {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_q = 0.99;
};

LatencySummary SummarizeLatencies(std::vector<Completion> done) {
  std::sort(done.begin(), done.end(), [](const Completion& a, const Completion& b) {
    return a.done_s < b.done_s;
  });
  const size_t windows =
      std::max<size_t>(1, done.size() / static_cast<size_t>(kMinServedQueries));
  const size_t per_window = done.size() / windows;
  LatencySummary summary;
  summary.tail_q = TailQuantile(per_window);
  std::vector<double> all, tails;
  for (size_t w = 0; w < windows; ++w) {
    const size_t end = w + 1 == windows ? done.size() : (w + 1) * per_window;
    std::vector<double> sorted;
    for (size_t i = w * per_window; i < end; ++i) {
      sorted.push_back(done[i].latency_ms);
    }
    all.insert(all.end(), sorted.begin(), sorted.end());
    std::sort(sorted.begin(), sorted.end());
    tails.push_back(Quantile(sorted, summary.tail_q));
  }
  summary.p50_ms = Median(std::move(all));
  summary.tail_ms = Median(tails);
  return summary;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct ClientLog {
  std::vector<Completion> completions;
  std::vector<LinkQuery> recheck_queries;
  std::vector<std::vector<float>> recheck_answers;
  int64_t failed = 0;
};

struct ServeLoop {
  std::vector<ClientLog> logs;  // one per client
  double wall_s = 0.0;

  void Append(ServeLoop other) {
    logs.resize(std::max(logs.size(), other.logs.size()));
    for (size_t c = 0; c < other.logs.size(); ++c) {
      ClientLog& to = logs[c];
      ClientLog& from = other.logs[c];
      to.completions.insert(to.completions.end(), from.completions.begin(),
                            from.completions.end());
      std::move(from.recheck_queries.begin(), from.recheck_queries.end(),
                std::back_inserter(to.recheck_queries));
      std::move(from.recheck_answers.begin(), from.recheck_answers.end(),
                std::back_inserter(to.recheck_answers));
      to.failed += from.failed;
    }
    wall_s += other.wall_s;
  }

  std::vector<Completion> Completions() const {
    std::vector<Completion> all;
    for (const ClientLog& log : logs) {
      all.insert(all.end(), log.completions.begin(), log.completions.end());
    }
    return all;
  }
};

// Closed loop: each of `clients` threads sends its next query when the
// previous answer arrives, until `window_s` has passed and `min_queries`
// have completed (at most 3x the window). Every answer must carry one score
// per candidate and the served epoch tag; the first kRecheckPerClient answers
// of each client are kept for the unbatched recheck. Completion times are
// taken from `origin`, and in a traced run only queries started in even
// kTraceSliceS slices since `origin` record a span.
ServeLoop RunClosedLoop(InferenceServer* server, const QueryStream& queries,
                        int clients, double window_s, int64_t min_queries,
                        uint64_t seed, const char* span_name,
                        Clock::time_point origin) {
  const uint64_t served_epoch = server->current_epoch();
  ServeLoop loop;
  loop.logs.resize(static_cast<size_t>(clients));
  std::atomic<int64_t> completed{0};
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan phase(span_name);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c, parent = phase.id()] {
        ClientLog& log = loop.logs[static_cast<size_t>(c)];
        Rng rng(MixSeed(seed, static_cast<uint64_t>(c)));
        for (;;) {
          const double elapsed = SecondsSince(start);
          if ((elapsed >= window_s && completed.load() >= min_queries) ||
              elapsed >= 3.0 * window_s) {
            break;
          }
          LinkQuery q = queries.Next(rng);
          const Clock::time_point q0 = Clock::now();
          const double start_s = std::chrono::duration<double>(q0 - origin).count();
          ServeResult answer;
          {
            std::optional<ScopedSpan> span;
            if (static_cast<int64_t>(start_s / kTraceSliceS) % 2 == 0) {
              span.emplace("serve.ScoreLinks", parent);
            }
            answer = server->ScoreLinks(q.src, q.rel, q.candidates);
          }
          const Clock::time_point q1 = Clock::now();
          log.completions.push_back(
              {start_s, std::chrono::duration<double>(q1 - origin).count(),
               std::chrono::duration<double, std::milli>(q1 - q0).count()});
          completed.fetch_add(1);
          if (answer.values.size() != q.candidates.size() ||
              answer.epoch != served_epoch) {
            ++log.failed;
          } else if (static_cast<int64_t>(log.recheck_queries.size()) <
                     kRecheckPerClient) {
            log.recheck_queries.push_back(std::move(q));
            log.recheck_answers.push_back(std::move(answer.values));
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  loop.wall_s = SecondsSince(start);
  return loop;
}

// Failed queries of a loop: answers that failed their shape check, plus kept
// answers that differ bitwise from the serial unbatched oracle.
int64_t RecheckLoop(InferenceServer* server, const ServeLoop& loop) {
  int64_t failed = 0;
  for (const ClientLog& log : loop.logs) {
    failed += log.failed;
    for (size_t i = 0; i < log.recheck_queries.size(); ++i) {
      const LinkQuery& q = log.recheck_queries[i];
      ScopedSpan span("serve.ScoreLinksUnbatched.recheck");
      const ServeResult want = server->ScoreLinksUnbatched(q.src, q.rel, q.candidates);
      if (!BitwiseEqual(want.values, log.recheck_answers[i])) {
        ++failed;
      }
    }
  }
  return failed;
}

struct EpochRecord {
  double wall_s = 0.0;  // the benchmark's own steady_clock around TrainEpoch
  EpochStats stats;
};

// Trains one epoch on a fresh trainer with `variant` resumed from the warm-up
// checkpoint; returns its stats and measured wall time.
EpochRecord ReplayEpoch(const Graph& graph, const TrainingConfig& variant,
                        const std::string& warm_ckpt, const char* span_name) {
  ScopedSpan span(span_name);
  LinkPredictionTrainer trainer(&graph, variant);
  trainer.ResumeFrom(warm_ckpt);
  EpochRecord rec;
  const Clock::time_point t0 = Clock::now();
  rec.stats = trainer.TrainEpoch();
  rec.wall_s = SecondsSince(t0);
  return rec;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

Graph GenerateGraph(const WorkloadSpec& spec, uint64_t seed, bool tiny) {
  const double scale = tiny ? kTinyScale : spec.scale;
  // The seed drives both the edge generator and the train/valid/test split.
  return spec.out_of_core ? FreebaseMini(scale, seed) : Fb15k237Like(scale, seed);
}

TrainingConfig MakeTrainingConfig(const WorkloadSpec& spec, uint64_t seed,
                                  const std::string& workdir) {
  // GraphSAGE, one layer, fanout 10, dims 32, stage-3 compute on the calling
  // thread; every other field (batch size, negatives, learning rates, sampling
  // workers and the adaptive controller, StorageOptions / CheckpointOptions)
  // stays at its shipped default. The shipped parallel_compute = true waits on
  // its slowest chunk in every stage-3 region, so on a shared host one
  // descheduled vCPU stalls the whole epoch and its time follows the host
  // rather than the program; a traced run reports that epoch as
  // ref.default_epoch_s.
  TrainingConfig config;
  config.layer_type = GnnLayerType::kGraphSage;
  config.fanouts = {10};
  config.dims = {32, 32};
  config.seed = MixSeed(seed, 7);
  config.pipeline.parallel_compute = false;
  if (spec.out_of_core) {
    config.storage.use_disk = true;
    config.storage.num_physical = 16;
    config.storage.num_logical = 8;
    config.storage.buffer_capacity = 4;
    // Scaled-down disk so modeled partition IO is comparable to compute. The
    // partition file is read through the page cache: the DiskModel stands
    // for the disk, and a shared host's real device would only add its
    // neighbours' IO to the measured time.
    config.storage.disk_model.bandwidth_bytes_per_sec = 12e6;
    config.storage.disk_model.iops = 1000.0;
    config.storage.io_direct = false;
    config.storage.dir = workdir + "/store";
  }
  return config;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Result RunWorkload(const Options& opt, const WorkloadSpec& spec) {
  Result result;
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(opt.trace);

  const TrainingConfig config = MakeTrainingConfig(spec, opt.seed, opt.workdir);
  // Setups are timed in two batches, one at the start of the run and one
  // after serving, so setup_s reflects the host over the whole run rather
  // than over its first second.
  const int min_setup_reps = opt.tiny ? 2 : kMinSetupReps;
  const double setup_budget_s = 0.25 * kSetupShare * opt.seconds;  // per batch
  auto repeat_setup = [&](std::vector<double>* samples,
                          const std::function<double()>& once) {
    const Clock::time_point start = Clock::now();
    for (int64_t done = 0;
         done < min_setup_reps ||
         (done < kMaxSetupReps && SecondsSince(start) < setup_budget_s);
         ++done) {
      ScopedSpan phase("run.setup");
      samples->push_back(once());
    }
  };
  const int64_t mrr_epochs = opt.tiny ? 2 : kMrrEpochs;
  const double budget_s = opt.seconds * kBudgetShare;
  const std::string warm_ckpt = opt.workdir + "/warm.ckpt";
  const std::string model_ckpt = opt.workdir + "/model.ckpt";

  // --- Setup: LoadGraph + trainer construction, median of many. Each
  // out-of-core trainer gets a fresh storage dir, and the previous one is
  // deleted untimed: re-creating the embedding file over the old one would
  // truncate it, and ext4 then writes the old file back to the device.
  std::string store_dir;  // of the newest out-of-core trainer
  int store_dirs = 0;
  auto setup_trainer = [&](std::unique_ptr<Graph>* g,
                           std::unique_ptr<LinkPredictionTrainer>* t) {
    t->reset();
    g->reset();
    TrainingConfig c = config;
    if (c.storage.use_disk) {
      std::filesystem::remove_all(store_dir);
      store_dir = config.storage.dir + "." + std::to_string(store_dirs++);
      MakeDir(store_dir);
      c.storage.dir = store_dir;
    }
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("graph.LoadGraph");
      *g = std::make_unique<Graph>(LoadGraph(opt.workdir + "/graph"));
    }
    {
      ScopedSpan span("pipeline.LinkPredictionTrainer");
      *t = std::make_unique<LinkPredictionTrainer>(g->get(), c);
    }
    return SecondsSince(t0);
  };
  std::unique_ptr<Graph> graph;
  std::unique_ptr<LinkPredictionTrainer> trainer;
  std::vector<double> setup_train_s;
  repeat_setup(&setup_train_s, [&] { return setup_trainer(&graph, &trainer); });
  const double setup_rss_mb = PeakRssMb();
  const int64_t edges_per_epoch = static_cast<int64_t>(graph->train_edges().size());

  // --- Warm-up epoch, checkpointed for the server and the replays.
  std::vector<uint8_t> epoch_failed;
  auto check_epoch = [&](const EpochStats& stats, uint64_t injected_rv) {
    epoch_failed.push_back(
        !std::isfinite(stats.loss) || stats.rv_violations + injected_rv != 0);
  };
  {
    ScopedSpan span("pipeline.TrainEpoch.warmup");
    check_epoch(trainer->TrainEpoch(), 0);
  }
  {
    ScopedSpan span("checkpoint.SaveCheckpoint.warmup");
    trainer->SaveCheckpoint(warm_ckpt);
  }
  // --- Serving setup: server construction + snapshot load of the warm-up
  // checkpoint, median of many. The out-of-core workload serves a
  // disk-backed snapshot: the shipped block size, with the capacity rounded up
  // to the whole blocks that hold a quarter of the rows. What a query costs
  // does not depend on the weights' values, so the snapshot after the warm-up
  // epoch serves as well as a later one.
  ServeOptions serve_options;
  serve_options.snapshot.disk_backed = spec.out_of_core;
  const int64_t block_rows = serve_options.snapshot.cache_block_rows;
  serve_options.snapshot.cache_capacity_blocks =
      std::max<int64_t>(1, (graph->num_nodes() / 4 + block_rows - 1) / block_rows);
  std::vector<double> load_s;
  auto setup_server = [&](std::unique_ptr<InferenceServer>* server) {
    server->reset();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("serve.InferenceServer");
      *server = std::make_unique<InferenceServer>(graph.get(), TaskKind::kLinkPrediction,
                                                  config.model_config(), serve_options);
    }
    std::string error;
    const Clock::time_point t1 = Clock::now();
    bool loaded = false;
    {
      ScopedSpan span("serve.LoadSnapshot");
      loaded = (*server)->LoadSnapshot(warm_ckpt, &error);
    }
    load_s.push_back(SecondsSince(t1));
    const double seconds = SecondsSince(t0);
    if (!loaded) {
      std::fprintf(stderr, "LoadSnapshot failed: %s\n", error.c_str());
      std::exit(1);
    }
    return seconds;
  };
  std::unique_ptr<InferenceServer> server;
  std::vector<double> setup_serve_s;
  repeat_setup(&setup_serve_s, [&] { return setup_server(&server); });

  // --- Timed epochs and one-client serving, alternating: after each epoch
  // the server answers one client for kServePerEpoch times that epoch's wall
  // time. A slow spell of the host then lands on both, and each median is
  // taken over the whole run rather than over one part of it. qps and p50_ms
  // come from one client: with several, the batcher's leader keeps draining
  // the queue while the others resubmit, and its own call can last a whole
  // window; whether that happens decides a many-client p50 from run to run,
  // so a traced run serves kBatcherClients clients afterwards and reports
  // their latencies per layer.
  //
  // mrr: test and validation splits together, twice the ranked edges, so the
  // figure moves less between seeds. Taken between epochs, untimed.
  double mrr = 0.0;
  auto evaluate_mrr = [&] {
    ScopedSpan span("pipeline.EvaluateMrr");
    mrr = 0.5 * (trainer->EvaluateMrr(kEvalNegatives) +
                 trainer->EvaluateMrr(kEvalNegatives, 2000, /*use_valid=*/true));
  };
  const QueryStream queries(*graph);
  std::vector<EpochRecord> timed;
  ServeLoop loop;
  const Clock::time_point origin = Clock::now();
  for (int64_t e = 0; e < mrr_epochs ||
                      (SecondsSince(origin) < budget_s && e < kMaxTimedEpochs);
       ++e) {
    if (e == mrr_epochs) {
      evaluate_mrr();
    }
    EpochRecord rec;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("pipeline.TrainEpoch");
      rec.stats = trainer->TrainEpoch();
    }
    rec.wall_s = SecondsSince(t0);
    check_epoch(rec.stats, e == 0 && opt.inject == Inject::kRv ? 1 : 0);
    timed.push_back(rec);
    loop.Append(RunClosedLoop(server.get(), queries, 1, kServePerEpoch * rec.wall_s, 0,
                              MixSeed(opt.seed, 200 + static_cast<uint64_t>(e)),
                              "run.serve", origin));
  }
  const int64_t epochs = static_cast<int64_t>(timed.size());
  if (epochs == mrr_epochs) {
    evaluate_mrr();
  }
  const double random_mrr = RandomRankingMrr(kEvalNegatives);
  if (!(mrr > random_mrr)) {
    epoch_failed[static_cast<size_t>(mrr_epochs)] = 1;  // ranks no better than chance
  }
  ServeLoop batcher;
  if (opt.trace) {
    batcher = RunClosedLoop(server.get(), queries, kBatcherClients,
                            kBatcherShare * loop.wall_s, kMinServedQueries,
                            MixSeed(opt.seed, 300), "run.serve.batcher", Clock::now());
  }
  const double peak_rss_mb = PeakRssMb();

  // A traced run times a few saves of the trained model. A save is two
  // fsyncs, so its time follows the host's disk: it is a per-layer figure.
  std::vector<double> checkpoint_s;
  for (int i = 0; i < (opt.trace ? kTracedCheckpointReps : 0); ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("checkpoint.SaveCheckpoint");
      trainer->SaveCheckpoint(model_ckpt);
    }
    checkpoint_s.push_back(SecondsSince(t0));
  }
  const CheckpointSaveStats ckpt_stats = trainer->last_checkpoint_stats();
  trainer.reset();

  // --- Determinism check: the first timed epoch replayed serially (no
  // pipeline) from the warm-up checkpoint must fold the same batch stream.
  const uint64_t first_hash =
      timed.front().stats.determinism_hash ^ (opt.inject == Inject::kHash ? 1 : 0);
  {
    TrainingConfig serial = config;
    serial.pipeline.enabled = false;
    if (serial.storage.use_disk) {
      serial.storage.dir = opt.workdir + "/replay";
      MakeDir(serial.storage.dir);
    }
    const EpochRecord rec =
        ReplayEpoch(*graph, serial, warm_ckpt, "pipeline.TrainEpoch.serial_replay");
    if (rec.stats.determinism_hash != first_hash) {
      epoch_failed[1] = 1;  // [0] is the warm-up epoch
    }
  }
  // Traced runs only: the same first timed epoch with the shipped
  // parallel_compute = true, the figure ROADMAP item 1's gate compares with
  // epoch_s. It must fold the same batch stream too.
  EpochRecord ref_default;
  if (opt.trace) {
    TrainingConfig shipped = config;
    shipped.pipeline.parallel_compute = true;
    if (shipped.storage.use_disk) {
      shipped.storage.dir = opt.workdir + "/ref";
      MakeDir(shipped.storage.dir);
    }
    ref_default =
        ReplayEpoch(*graph, shipped, warm_ckpt, "pipeline.TrainEpoch.shipped_default");
    if (ref_default.stats.determinism_hash != first_hash) {
      epoch_failed[1] = 1;
    }
  }

  {
    // The closing setup batch, on throwaway objects.
    std::unique_ptr<Graph> g;
    std::unique_ptr<LinkPredictionTrainer> t;
    repeat_setup(&setup_train_s, [&] { return setup_trainer(&g, &t); });
    t.reset();
    std::unique_ptr<InferenceServer> other;
    repeat_setup(&setup_serve_s, [&] { return setup_server(&other); });
  }

  // After the window: the kept answers must equal the serial unbatched oracle
  // bitwise.
  if (opt.inject == Inject::kWrongAnswer && !loop.logs[0].recheck_answers.empty() &&
      !loop.logs[0].recheck_answers[0].empty()) {
    uint32_t bits = 0;
    std::memcpy(&bits, &loop.logs[0].recheck_answers[0][0], sizeof(bits));
    bits ^= 1u;
    std::memcpy(&loop.logs[0].recheck_answers[0][0], &bits, sizeof(bits));
  }
  int64_t failed_queries = RecheckLoop(server.get(), loop) + RecheckLoop(server.get(), batcher);
  std::vector<Completion> completions = loop.Completions();
  const std::vector<Completion> batcher_completions = batcher.Completions();
  double batcher_max_ms = 0.0;
  for (const Completion& c : batcher_completions) {
    batcher_max_ms = std::max(batcher_max_ms, c.latency_ms);
  }
  const ServerStats server_stats = server->stats();
  const int64_t loop_served = static_cast<int64_t>(completions.size());
  const int64_t served =
      loop_served + static_cast<int64_t>(batcher_completions.size());
  failed_queries += std::min<int64_t>(
      served, static_cast<int64_t>(server_stats.rv_violations));
  failed_queries = std::min(failed_queries, served);

  // Tracing overhead of a traced run: the one-client loop's queries started
  // in kTraceSliceS slices that recorded spans against those started in the
  // slices that did not. One client's throughput is the inverse of its mean
  // latency, so the ratio of the means is the throughput lost to spans.
  double slice_ms[2] = {0.0, 0.0};  // [0] spans recorded, [1] none
  int64_t slice_queries[2] = {0, 0};
  for (const Completion& c : completions) {
    const int64_t parity = static_cast<int64_t>(c.start_s / kTraceSliceS) % 2;
    slice_ms[parity] += c.latency_ms;
    ++slice_queries[parity];
  }
  const double traced_mean_ms =
      slice_queries[0] > 0 ? slice_ms[0] / static_cast<double>(slice_queries[0]) : 0.0;
  const double untraced_mean_ms =
      slice_queries[1] > 0 ? slice_ms[1] / static_cast<double>(slice_queries[1]) : 0.0;
  const LatencySummary latency = SummarizeLatencies(std::move(completions));
  const LatencySummary batcher_latency = SummarizeLatencies(batcher_completions);

  int64_t failed_epochs = 0;
  for (uint8_t f : epoch_failed) {
    failed_epochs += f;
  }
  result.attempted = static_cast<int64_t>(epoch_failed.size()) + served;
  result.failed = failed_epochs + failed_queries;

  std::vector<double> epoch_wall;
  std::vector<double> epoch_modeled;
  for (const EpochRecord& rec : timed) {
    epoch_wall.push_back(rec.wall_s);
    epoch_modeled.push_back(rec.stats.wall_seconds);
  }

  std::printf("workload %s seed %llu: %lld nodes, %lld edges/epoch, %lld timed "
              "epochs after 1 warm-up, %lld queries from 1 client in %.2f s\n",
              spec.name, static_cast<unsigned long long>(opt.seed),
              static_cast<long long>(graph->num_nodes()),
              static_cast<long long>(edges_per_epoch),
              static_cast<long long>(epochs), static_cast<long long>(loop_served),
              loop.wall_s);
  std::printf("  setup (s, measured, %zu + %zu repetitions): train",
              setup_train_s.size(), setup_serve_s.size());
  for (double v : setup_train_s) {
    std::printf(" %.4f", v);
  }
  std::printf("; serve");
  for (double v : setup_serve_s) {
    std::printf(" %.4f", v);
  }
  std::printf("\n");
  std::printf("  epochs (s, measured):");
  for (const EpochRecord& rec : timed) {
    std::printf(" %.3f", rec.wall_s);
  }
  std::printf("\n");
  std::printf("  epoch_s          %.4f s   measured, median of %lld TrainEpoch calls\n",
              Median(epoch_wall), static_cast<long long>(epochs));
  std::printf("  epoch_modeled_s  %.4f s   modeled: measured compute + modeled "
              "unhidden IO (EpochStats.wall_seconds)\n",
              Median(epoch_modeled));
  std::printf("  mrr              %.4f     after %lld timed epochs (random ranking %.4f)\n",
              mrr, static_cast<long long>(mrr_epochs), random_mrr);
  std::printf("  p50_ms           %.4f ms  one client, p99 %.4f ms (%s)\n", latency.p50_ms,
              latency.tail_ms,
              latency.tail_q == 0.99 ? "median over 1000-query windows"
                                     : "too few queries: a lower percentile");
  if (opt.trace) {
    std::printf("  checkpoint save  %.4f s   measured, median of %zu\n",
                Median(checkpoint_s), checkpoint_s.size());
    std::printf("  %d-client loop    %lld queries in %.2f s, p50 %.4f ms, p99 %.4f ms, "
                "longest call %.1f ms\n",
                kBatcherClients, static_cast<long long>(batcher_completions.size()),
                batcher.wall_s, batcher_latency.p50_ms, batcher_latency.tail_ms,
                batcher_max_ms);
  }
  std::printf("  peak RSS (MB) after setup %.1f, after training and serving %.1f\n",
              setup_rss_mb, peak_rss_mb);
  std::printf("  failed %lld of %lld (epochs %lld, queries %lld)\n",
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted),
              static_cast<long long>(failed_epochs),
              static_cast<long long>(failed_queries));

  if (!opt.trace) {
    result.Add("setup_s", Median(setup_train_s) + Median(setup_serve_s), "s");
    result.Add("epoch_s", Median(epoch_wall), "s");
    result.Add("epoch_modeled_s", Median(epoch_modeled), "s");
    result.Add("mrr", mrr, "ratio");
    result.Add("qps", loop.wall_s > 0.0 ? static_cast<double>(loop_served) / loop.wall_s : 0.0,
               "1/s");
    result.Add("p50_ms", latency.p50_ms, "ms");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  // --- Traced run: per-layer counters from the public calls' own stats ...
  auto median_of = [&](double (*field)(const EpochStats&)) {
    std::vector<double> v;
    for (const EpochRecord& rec : timed) {
      v.push_back(field(rec.stats));
    }
    return Median(v);
  };
  double workers_sum = 0.0;
  int64_t workers_n = 0;
  int64_t resizes = 0;
  int io_inflight_peak = 0;
  uint64_t rv_violations = server_stats.rv_violations;
  for (const EpochRecord& rec : timed) {
    for (int w : rec.stats.workers_per_set) {
      workers_sum += w;
      ++workers_n;
    }
    resizes += rec.stats.resize_count;
    io_inflight_peak = std::max(io_inflight_peak, rec.stats.io_inflight_peak);
    rv_violations += rec.stats.rv_violations;
  }
  result.Add("pipeline.sample_s",
             median_of([](const EpochStats& s) { return s.sample_seconds; }), "s");
  result.Add("pipeline.stall_s",
             median_of([](const EpochStats& s) { return s.pipeline_stall_seconds; }),
             "s");
  result.Add("pipeline.queue_occupancy",
             median_of([](const EpochStats& s) { return s.queue_occupancy_mean; }),
             "ratio");
  result.Add("pipeline.workers_mean",
             workers_n > 0 ? workers_sum / static_cast<double>(workers_n) : 0.0,
             "workers");
  result.Add("pipeline.resizes",
             static_cast<double>(resizes) / static_cast<double>(epochs), "count");
  // The timed epochs compute on one thread; the fan-out's efficiency is the
  // shipped-default epoch's.
  result.Add("compute.par_eff", ref_default.stats.compute_parallel_efficiency, "ratio");
  result.Add("storage.io_modeled_s",
             median_of([](const EpochStats& s) { return s.io_seconds; }), "s");
  result.Add("storage.io_stall_modeled_s",
             median_of([](const EpochStats& s) { return s.io_stall_seconds; }), "s");
  result.Add("storage.read_bytes",
             median_of([](const EpochStats& s) {
               return static_cast<double>(s.io_read_bytes);
             }),
             "B");
  result.Add("storage.write_bytes",
             median_of([](const EpochStats& s) {
               return static_cast<double>(s.io_write_bytes);
             }),
             "B");
  result.Add("storage.queue_depth_mean",
             median_of([](const EpochStats& s) { return s.io_queue_depth_mean; }),
             "requests");
  result.Add("storage.inflight_peak", io_inflight_peak, "requests");
  result.Add("checkpoint.save_s", Median(checkpoint_s), "s");
  result.Add("checkpoint.bytes", static_cast<double>(ckpt_stats.bytes_written), "B");
  result.Add("checkpoint.peak_bytes", static_cast<double>(ckpt_stats.peak_bytes), "B");
  result.Add("serve.batches", static_cast<double>(server_stats.batches), "count");
  result.Add("serve.coalesced_mean",
             server_stats.batches > 0 ? static_cast<double>(server_stats.queries) /
                                            static_cast<double>(server_stats.batches)
                                      : 0.0,
             "queries");
  result.Add("serve.max_coalesced", static_cast<double>(server_stats.max_coalesced),
             "queries");
  const uint64_t lookups = server_stats.cache.hits + server_stats.cache.misses;
  result.Add("serve.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(server_stats.cache.hits) /
                               static_cast<double>(lookups)
                         : 0.0,
             "ratio");
  result.Add("serve.cache_misses", static_cast<double>(server_stats.cache.misses),
             "count");
  result.Add("serve.load_s", Median(load_s), "s");
  // The kBatcherClients-client loop: latencies through the batcher. The
  // one-client tail is reported here rather than end to end: on a shared
  // 4-vCPU host its run-to-run spread is far wider than any usable bound.
  result.Add("serve.p50_ms", batcher_latency.p50_ms, "ms");
  result.Add("serve.p99_ms", batcher_latency.tail_ms, "ms");
  result.Add("serve.max_ms", batcher_max_ms, "ms");
  result.Add("serve.solo_p99_ms", latency.tail_ms, "ms");
  result.Add("rv.violations", static_cast<double>(rv_violations), "count");

  result.Add("ref.default_epoch_s", ref_default.wall_s, "s");

  // ... and the layer replays on this workload's inputs.
  ReplaySamplerAndNn(*graph, config, opt.seed, opt.tiny ? 2 : 16, &result);
  ReplayPolicyGraphStorage(*graph, config, opt.seed, opt.workdir, &result);
  {
    std::string error;
    std::shared_ptr<const ModelSnapshot> snapshot =
        ModelSnapshot::Load(model_ckpt, *graph, TaskKind::kLinkPrediction,
                            config.model_config(), serve_options.snapshot, &error);
    if (snapshot == nullptr) {
      std::fprintf(stderr, "ModelSnapshot::Load failed: %s\n", error.c_str());
      std::exit(1);
    }
    Rng rng(MixSeed(opt.seed, 13));
    std::vector<double> unbatched_ms;
    std::vector<double> gather_ms;
    for (int64_t i = 0; i < kReplayQueries; ++i) {
      const LinkQuery q = queries.Next(rng);
      Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span("serve.ScoreLinksUnbatched");
        server->ScoreLinksUnbatched(q.src, q.rel, q.candidates);
      }
      unbatched_ms.push_back(SecondsSince(t0) * 1e3);
      std::vector<int64_t> nodes = q.candidates;
      nodes.push_back(q.src);
      t0 = Clock::now();
      {
        ScopedSpan span("serve.EmbeddingSource::Gather");
        snapshot->embeddings->Gather(nodes, nullptr);
      }
      gather_ms.push_back(SecondsSince(t0) * 1e3);
    }
    result.Add("serve.unbatched_ms", Median(unbatched_ms), "ms");
    result.Add("serve.gather_ms", Median(gather_ms), "ms");
  }

  // Throughput lost to span recording.
  const double overhead =
      untraced_mean_ms > 0.0 ? traced_mean_ms / untraced_mean_ms - 1.0 : 0.0;
  std::printf("  tracing overhead: %lld queries with spans, mean %.4f ms; %lld without, "
              "mean %.4f ms (%+.2f%%)\n",
              static_cast<long long>(slice_queries[0]), traced_mean_ms,
              static_cast<long long>(slice_queries[1]), untraced_mean_ms,
              100.0 * overhead);
  result.Add("trace.overhead_frac", overhead, "ratio");
  return result;
}

}  // namespace perfbench
