#include "src/pipeline/training_pipeline.h"

#include "src/util/check.h"
#include "src/util/timer.h"

namespace mariusgnn {

PipelineSession::PipelineSession(PipelineSessionOptions options, Producer produce,
                                 Consumer consume)
    : options_(std::move(options)),
      produce_(std::move(produce)),
      consume_(std::move(consume)),
      pool_(options_.pool != nullptr ? options_.pool : &ThreadPool::Global()),
      queue_(options_.queue_capacity),
      window_(static_cast<int64_t>(options_.queue_capacity) + options_.workers) {
  MG_CHECK(options_.queue_capacity > 0);
  MG_CHECK(options_.workers >= 0);
  workers_left_ = options_.workers;
  for (int w = 0; w < options_.workers; ++w) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

PipelineSession::~PipelineSession() {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    stop_ = true;
  }
  gate_cv_.notify_all();
  // Workers parked on the gate exit on stop_; a worker blocked in Push (or
  // finishing a produce) sees the closed queue and exits without pushing.
  // Unconsumed items die with the queue and the reorder buffer.
  queue_.Close();
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return workers_left_ == 0; });
}

void PipelineSession::WorkerLoop() {
  for (;;) {
    int64_t i;
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      gate_cv_.wait(lock, [this] {
        return stop_ || (next_ticket_ < announced_ && next_ticket_ < consumed_ + window_);
      });
      if (stop_) {
        break;
      }
      i = next_ticket_++;
    }
    WallTimer timer;
    std::shared_ptr<void> item = produce_(i);
    if (!queue_.Push(Produced{i, std::move(item), timer.Seconds()})) {
      break;  // queue closed (session teardown)
    }
  }
  std::lock_guard<std::mutex> lock(done_mu_);
  if (--workers_left_ == 0) {
    done_cv_.notify_all();
  }
}

int64_t PipelineSession::Extend(int64_t count) {
  MG_CHECK(count >= 0);
  int64_t total;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    announced_ += count;
    total = announced_;
  }
  gate_cv_.notify_all();
  return total;
}

PipelineStats PipelineSession::ConsumeSerial(int64_t target) {
  PipelineStats stats;
  while (consumed_ < target) {
    const int64_t i = consumed_;
    WallTimer sample_timer;
    std::shared_ptr<void> item = produce_(i);
    stats.sample_seconds += sample_timer.Seconds();
    rv_ticket_.Observe(i);
    WallTimer compute_timer;
    consume_(item.get(), i);
    stats.compute_seconds += compute_timer.Seconds();
    ++consumed_;
  }
  return stats;
}

PipelineStats PipelineSession::Consume(int64_t count) {
  MG_CHECK(count >= 0);
  const int64_t target = consumed_ + count;
  MG_CHECK_MSG(target <= announced_, "Consume beyond the announced stream");
  if (options_.workers == 0) {
    PipelineStats stats = ConsumeSerial(target);
    stats.num_items = count;
    return stats;
  }

  // The queue-occupancy window covers exactly this segment: reset on entry,
  // snapshot on exit.
  (void)queue_.WindowStats();

  PipelineStats stats;
  while (consumed_ < target) {
    auto it = reorder_.find(consumed_);
    if (it == reorder_.end()) {
      WallTimer wait_timer;
      std::optional<Produced> got = queue_.Pop();
      stats.stall_seconds += wait_timer.Seconds();
      MG_CHECK(got.has_value());
      const int64_t index = got->index;
      reorder_.emplace(index, std::move(*got));
      continue;
    }
    std::shared_ptr<void> item = std::move(it->second.item);
    stats.sample_seconds += it->second.sample_seconds;
    reorder_.erase(it);
    rv_ticket_.Observe(consumed_);
    WallTimer compute_timer;
    consume_(item.get(), consumed_);
    stats.compute_seconds += compute_timer.Seconds();
    {
      std::lock_guard<std::mutex> lock(gate_mu_);
      ++consumed_;
    }
    gate_cv_.notify_all();
  }

  stats.num_items = count;
  stats.workers = options_.workers;
  const QueueStats qs = queue_.WindowStats();
  stats.queue_occupancy_mean =
      qs.MeanOccupancy() / static_cast<double>(queue_.capacity());
  return stats;
}

TrainingPipeline::TrainingPipeline(PipelineSessionOptions options)
    : options_(std::move(options)) {
  MG_CHECK(options_.queue_capacity > 0);
  MG_CHECK(options_.workers >= 0);
}

PipelineStats TrainingPipeline::Run(int64_t n, const Producer& produce,
                                    const Consumer& consume) {
  if (n <= 0) {
    return PipelineStats();
  }
  PipelineSession session(options_, produce, consume);
  return session.RunSegment(n);
}

}  // namespace mariusgnn
