// Repository benchmark executable. Built and invoked by perfbench/run.py:
//
//   mgnn_perfbench --phase prep --workload W --seed N --workdir DIR
//   mgnn_perfbench --phase run  --workload W --seed N --seconds S --trace 0|1
//                  --workdir DIR [--trace-out FILE] [--tiny] [--inject KIND]
//
// The prep phase writes the seeded inputs (the graph, via SaveGraph) in its own
// process, so the run phase's peak RSS and setup time cover only what a user
// of the library pays. The run phase prints a report and, as its last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "src/data/serialize.h"

using namespace perfbench;

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "mgnn_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--phase") {
      opt.phase = value();
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--workdir") {
      opt.workdir = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--inject") {
      const std::string kind = value();
      if (kind == "wrong_answer") {
        opt.inject = Inject::kWrongAnswer;
      } else if (kind == "rv") {
        opt.inject = Inject::kRv;
      } else if (kind == "hash") {
        opt.inject = Inject::kHash;
      } else {
        Usage("unknown --inject kind " + kind);
      }
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (opt.workdir.empty()) {
    Usage("--workdir is required");
  }
  if (!(opt.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return opt;
}

void PrintResult(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    Usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.phase == "prep") {
    mariusgnn::SaveGraph(GenerateGraph(*spec, opt.seed, opt.tiny), opt.workdir + "/graph");
    return 0;
  }
  if (opt.phase != "run") {
    Usage("--phase must be prep or run");
  }

  const Result result = RunWorkload(opt, *spec);
  if (opt.trace) {
    Tracer::Global().set_enabled(false);
    std::printf("trace spans (name, count, total s, self s):\n");
    for (const SpanSummary& s : Tracer::Global().Summarize()) {
      std::printf("  %-44s %7lld %10.4f %10.4f\n", s.name.c_str(),
                  static_cast<long long>(s.count), s.total_s, s.self_s);
    }
    if (!opt.trace_out.empty()) {
      if (!Tracer::Global().WriteChromeTrace(opt.trace_out)) {
        std::fprintf(stderr, "could not write trace to %s\n", opt.trace_out.c_str());
        return 1;
      }
      std::printf("trace written to %s\n", opt.trace_out.c_str());
    }
  }
  std::printf("result of workload %s, seed %llu, trace %d\n", spec->name,
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  PrintResult(result);
  std::fflush(stdout);
  return 0;
}
