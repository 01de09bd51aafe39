// Declarations shared by the benchmark executable's files: command-line options,
// the workload table, the result record, and the layer replays.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/mariusgnn.h"

namespace perfbench {

// Self-test fault injection: each kind corrupts one observed value just
// before its correctness check, which must then count one failed operation.
enum class Inject { kNone, kWrongAnswer, kRv, kHash };

struct Options {
  std::string phase = "run";  // "prep" writes the inputs, "run" measures
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // self-test scale
  Inject inject = Inject::kNone;
  std::string workdir;    // inputs and scratch files of this run
  std::string trace_out;  // Chrome trace dump of a traced run
};

// Every workload runs the same user flow — load the graph and build the
// trainer, train a warm-up epoch and checkpoint it, load the checkpoint into
// an InferenceServer, then train and evaluate with a closed serving loop
// between the epochs — so that every end-to-end metric exists on every
// workload; the workload decides where the time goes.
struct WorkloadSpec {
  const char* name;
  // FreebaseMini-like graph, COMET p=16, l=8, c=4 out-of-core training and a
  // disk-backed served snapshot, instead of the FB15k-237-like graph trained
  // in memory and served from an mmapped snapshot.
  bool out_of_core;
  double scale;  // generator scale
};

const WorkloadSpec* FindWorkload(const std::string& name);

// Graph of the workload, generated from the seed (prep phase only).
mariusgnn::Graph GenerateGraph(const WorkloadSpec& spec, uint64_t seed, bool tiny);

mariusgnn::TrainingConfig MakeTrainingConfig(const WorkloadSpec& spec,
                                             uint64_t seed,
                                             const std::string& workdir);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

Result RunWorkload(const Options& options, const WorkloadSpec& spec);

// Layer replays of a traced run: each calls one layer's public entry point
// directly on the workload's inputs and appends that layer's metrics.
void ReplaySamplerAndNn(const mariusgnn::Graph& graph,
                        const mariusgnn::TrainingConfig& config, uint64_t seed,
                        int64_t batches, Result* result);
void ReplayPolicyGraphStorage(const mariusgnn::Graph& graph,
                              const mariusgnn::TrainingConfig& config,
                              uint64_t seed, const std::string& workdir,
                              Result* result);

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
