// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own files, around each call it
// makes into a library layer: a span's name is "<layer>.<call>", so the layer
// span is the span around the call. Every span keeps its name, start, end and
// the id of the span that was open on the same thread when it began (its
// parent; 0 for a root). Spans stay in memory until the run ends, when
// WriteChromeTrace dumps them in the Chrome trace-event format (open the file
// in https://ui.perfetto.dev or chrome://tracing) and Summarize folds them into
// per-name totals and self times.
//
// When tracing is off a ScopedSpan costs one relaxed atomic load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  const char* name = "";
  int64_t start_ns = 0;  // steady_clock, relative to the tracer's epoch
  int64_t end_ns = 0;
  uint32_t thread = 0;  // small per-thread index, stable for the run
};

struct SpanSummary {
  std::string name;
  int64_t count = 0;
  double total_s = 0.0;
  // Total minus the part of each span's interval covered by its children.
  double self_s = 0.0;
};

class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Opens a span on the calling thread; returns its id (0 when disabled). The
  // parent is the innermost span open on this thread, or `parent` when none is
  // (a span opened on a worker thread on behalf of another thread's span).
  uint64_t Begin(const char* name, uint64_t parent = 0);
  void End(uint64_t id);

  std::vector<SpanSummary> Summarize() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Tracer();

  std::vector<Span> Spans() const;  // a copy, taken under the lock

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_thread_{0};
  int64_t epoch_ns_ = 0;

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index = id - 1
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t parent = 0)
      : id_(Tracer::Global().Begin(name, parent)) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      Tracer::Global().End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
