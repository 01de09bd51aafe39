// Bounded MPMC blocking queue used to pipeline mini-batch construction with model
// compute (Figure 2's "Pipeline Queue").
//
// Besides the queueing itself, the queue keeps time-weighted occupancy statistics
// (high/low watermarks + an occupancy integral) per observation window. Occupancy is
// the pipeline's back-pressure signal: a queue pinned at capacity means batch
// construction is ahead of compute (extra sampling workers are wasted), a queue
// pinned at zero while the consumer stalls means construction is the bottleneck.
// PipelineSession reports one window per segment (PipelineStats::
// queue_occupancy_mean).
#ifndef SRC_PIPELINE_QUEUE_H_
#define SRC_PIPELINE_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "src/util/check.h"
#include "src/util/rv_monitor.h"

namespace mariusgnn {

// Snapshot of one observation window of queue activity (see BoundedQueue::
// WindowStats). Occupancy is measured in items; callers normalise by capacity.
struct QueueStats {
  size_t high_watermark = 0;        // max occupancy seen in the window
  size_t low_watermark = 0;         // min occupancy seen in the window
  double occupancy_integral = 0.0;  // ∫ occupancy dt over the window (item-seconds)
  double window_seconds = 0.0;      // wall time the window covers
  int64_t pushes = 0;
  int64_t pops = 0;

  // Time-weighted mean occupancy (items) over the window.
  double MeanOccupancy() const {
    return window_seconds > 0.0 ? occupancy_integral / window_seconds : 0.0;
  }
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    MG_CHECK(capacity > 0);
    const Clock::time_point now = Clock::now();
    window_start_ = now;
    last_event_ = now;
  }

  size_t capacity() const { return capacity_; }

  // Blocks while full. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) {
      return false;
    }
    AdvanceIntegralLocked();
    items_.push_back(std::move(item));
    ++pushes_;
    high_ = std::max(high_, items_.size());
    rv_occupancy_.ObserveOccupancy(items_.size(), capacity_);
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty. Returns nullopt when the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    return PopFrontLocked();
  }

  // Unblocks all waiters; Push fails and Pop drains then returns nullopt.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  // Returns the statistics of the window since construction / the previous
  // WindowStats call, and starts a new window (watermarks reset to the current
  // occupancy, integral and counters to zero).
  QueueStats WindowStats() {
    std::lock_guard<std::mutex> lock(mu_);
    AdvanceIntegralLocked();
    rv_occupancy_.ObserveWindow(low_, high_, capacity_);
    QueueStats stats;
    stats.high_watermark = high_;
    stats.low_watermark = low_;
    stats.occupancy_integral = integral_;
    stats.window_seconds =
        std::chrono::duration<double>(last_event_ - window_start_).count();
    stats.pushes = pushes_;
    stats.pops = pops_;
    window_start_ = last_event_;
    high_ = items_.size();
    low_ = items_.size();
    integral_ = 0.0;
    pushes_ = 0;
    pops_ = 0;
    return stats;
  }

  // Current window's statistics without resetting it (tests / diagnostics).
  QueueStats PeekStats() const {
    std::lock_guard<std::mutex> lock(mu_);
    QueueStats stats;
    const Clock::time_point now = Clock::now();
    stats.high_watermark = std::max(high_, items_.size());
    stats.low_watermark = std::min(low_, items_.size());
    stats.occupancy_integral =
        integral_ + static_cast<double>(items_.size()) *
                        std::chrono::duration<double>(now - last_event_).count();
    stats.window_seconds =
        std::chrono::duration<double>(now - window_start_).count();
    stats.pushes = pushes_;
    stats.pops = pops_;
    return stats;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Charges the elapsed time since the last state change at the current occupancy.
  void AdvanceIntegralLocked() {
    const Clock::time_point now = Clock::now();
    integral_ += static_cast<double>(items_.size()) *
                 std::chrono::duration<double>(now - last_event_).count();
    last_event_ = now;
  }

  T PopFrontLocked() {
    AdvanceIntegralLocked();
    T item = std::move(items_.front());
    items_.pop_front();
    ++pops_;
    low_ = std::min(low_, items_.size());
    not_full_.notify_one();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;

  // RV monitor (pipeline.queue_occupancy): observed under mu_ after each push
  // and at window close, so occupancy can never silently exceed capacity and the
  // watermark bookkeeping behind the occupancy stats stays self-consistent.
  RvWatermarkMonitor rv_occupancy_{RvInvariant::kQueueOccupancy};

  // Occupancy instrumentation, all guarded by mu_.
  Clock::time_point window_start_;
  Clock::time_point last_event_;
  double integral_ = 0.0;
  size_t high_ = 0;
  size_t low_ = 0;
  int64_t pushes_ = 0;
  int64_t pops_ = 0;
};

}  // namespace mariusgnn

#endif  // SRC_PIPELINE_QUEUE_H_
