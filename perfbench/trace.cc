#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<uint64_t> open_spans;
thread_local int64_t thread_index = -1;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_ns_(NowNs()) {}

uint64_t Tracer::Begin(const char* name, uint64_t parent) {
  if (!enabled()) {
    return 0;
  }
  if (thread_index < 0) {
    thread_index = next_thread_.fetch_add(1, std::memory_order_relaxed);
  }
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? parent : open_spans.back();
  span.thread = static_cast<uint32_t>(thread_index);
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.id = spans_.size() + 1;
    span.start_ns = NowNs() - epoch_ns_;
    spans_.push_back(span);
  }
  open_spans.push_back(span.id);
  return span.id;
}

void Tracer::End(uint64_t id) {
  const int64_t end = NowNs() - epoch_ns_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = end;
  }
  if (!open_spans.empty() && open_spans.back() == id) {
    open_spans.pop_back();
  }
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SpanSummary> Tracer::Summarize() const {
  const std::vector<Span> spans = Spans();
  // Children of one parent may run concurrently on other threads (the client
  // spans under run.serve.batcher), so a parent's covered time is the union
  // of its children's intervals, clipped to its own.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered_to = spans[i].start_ns;
    for (const auto& [start, end] : intervals) {
      const int64_t from = std::max(start, covered_to);
      const int64_t to = std::min(end, spans[i].end_ns);
      if (to > from) {
        child_ns[i] += to - from;
        covered_to = to;
      }
    }
  }
  std::map<std::string, SpanSummary> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanSummary& sum = by_name[s.name];
    sum.name = s.name;
    sum.count += 1;
    sum.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    sum.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  std::vector<SpanSummary> out;
  for (auto& entry : by_name) {
    out.push_back(entry.second);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<Span> spans = Spans();
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu}}%s\n",
                 s.name, s.thread, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
