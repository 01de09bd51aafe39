// Multi-stage asynchronous training pipeline (Section 3, Figure 2).
//
// MariusGNN keeps out-of-core training compute-bound by overlapping the CPU-heavy
// stages of an epoch with model compute. This subsystem is the shared engine both
// trainers drive their epochs through:
//
//   stage 1  batch construction — N workers on the shared ThreadPool each pull the
//            next batch index from a ticket counter, build the batch (DENSE/layer-wise
//            sampling + negative sampling), and push it into a BoundedQueue;
//   stage 2  reassembly — the consumer drains the queue into a small reorder buffer
//            and hands batches to the compute callback strictly in batch-index order,
//            so training is bitwise-identical to a serial run for any worker count;
//   stage 3  compute — forward/backward/update runs on the calling thread (the
//            paper's GPU stage), while workers are already sampling future batches.
//
// Determinism contract: the producer callback must depend only on the batch index
// (derive per-batch RNG streams from MixSeed(run_seed, index)), never on which worker
// runs it or in which order batches finish. A window gate keeps workers at most
// queue_capacity + workers batches ahead of the consumer, bounding memory.
//
// PipelineSession is the resumable form of the engine: one session spans an epoch
// and the item stream is announced in segments (one per partition set). The
// stage-1 worker count is fixed for the session's lifetime.
//
// The partition-IO stage of Figure 2 lives in PartitionBuffer::Prefetch (storage
// layer); OrderingPolicy::Lookahead tells the trainer which partitions to stage next.
#ifndef SRC_PIPELINE_TRAINING_PIPELINE_H_
#define SRC_PIPELINE_TRAINING_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/pipeline/queue.h"
#include "src/util/check.h"
#include "src/util/rv_monitor.h"
#include "src/util/threadpool.h"

namespace mariusgnn {

struct PipelineSessionOptions {
  // Batch-construction workers. 0 runs everything serially on the calling thread
  // (same batch stream, no threads) — the non-pipelined baseline.
  int workers = 2;
  // Prepared batches buffered between construction and compute (Figure 2's
  // "Pipeline Queue" depth).
  size_t queue_capacity = 4;
  // Pool the workers run on; nullptr = ThreadPool::Global().
  ThreadPool* pool = nullptr;
};

// Per-stage timing breakdown of one pipeline run (or one session segment).
struct PipelineStats {
  double sample_seconds = 0.0;   // total batch-construction time across workers
  double compute_seconds = 0.0;  // total consumer-callback time
  double stall_seconds = 0.0;    // consumer time blocked waiting for the next batch
  int64_t num_items = 0;
  // Stage-1 workers the segment ran with, and the time-weighted mean occupancy of
  // the pipeline queue over the segment as a fraction of its capacity (0 for
  // serial runs).
  int workers = 0;
  double queue_occupancy_mean = 0.0;
};

// A resumable pipeline run. The logical item stream is open-ended: Extend
// announces more items (workers may start producing them immediately, subject to
// the window gate) and Consume delivers the next `count` announced items to the
// consumer strictly in index order.
//
// Workers never claim an index beyond the announced limit. That is what makes
// per-partition-set segments safe: the producer callback may read per-set state
// (neighbor index, negative sampler, seed) that the caller swaps between
// segments, because no worker can run ahead into a segment that has not been
// announced. The swap is ordered by the gate mutex: state written before
// Extend/Consume is visible to every worker that claims one of the new indices.
//
// Threading: Extend/Consume/stats must be called from the owning thread
// (the consumer); the producer callback runs on pool workers and must be
// thread-safe + index-deterministic.
class PipelineSession {
 public:
  using Producer = std::function<std::shared_ptr<void>(int64_t index)>;
  using Consumer = std::function<void(void* item, int64_t index)>;

  PipelineSession(PipelineSessionOptions options, Producer produce, Consumer consume);
  ~PipelineSession();

  PipelineSession(const PipelineSession&) = delete;
  PipelineSession& operator=(const PipelineSession&) = delete;

  // Announces `count` more items of the stream. Returns the new announced total.
  int64_t Extend(int64_t count);

  // Consumes the next `count` announced items in index order and returns the
  // segment's stage timings. Requires consumed() + count <= announced().
  PipelineStats Consume(int64_t count);

  // Extend + Consume: the common one-segment-per-partition-set shape.
  PipelineStats RunSegment(int64_t count) {
    Extend(count);
    return Consume(count);
  }

  int workers() const { return options_.workers; }
  int64_t announced() const { return announced_; }
  int64_t consumed() const { return consumed_; }
  // Current queue depth (diagnostics/tests; stale immediately).
  size_t queue_size() const { return queue_.Size(); }
  size_t queue_capacity() const { return queue_.capacity(); }

 private:
  struct Produced {
    int64_t index;
    std::shared_ptr<void> item;
  };

  // Stage-1 worker loop: claim the next ticket through the window gate, produce,
  // push; exits on stop_ or when the queue is closed.
  void WorkerLoop();
  PipelineStats ConsumeSerial(int64_t target);

  PipelineSessionOptions options_;
  Producer produce_;
  Consumer consume_;
  ThreadPool* pool_;
  BoundedQueue<Produced> queue_;

  // Ticket claiming and the batch-window gate. Workers claim the next index under
  // gate_mu_ only when it is below both the announced limit and consumed + window
  // (window = queue_capacity + workers).
  const int64_t window_;
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  int64_t announced_ = 0;    // guarded by gate_mu_; read lock-free by the owner
  int64_t consumed_ = 0;     // guarded by gate_mu_; read lock-free by the owner
  int64_t next_ticket_ = 0;  // guarded by gate_mu_
  bool stop_ = false;        // guarded by gate_mu_

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  int workers_left_ = 0;  // guarded by done_mu_

  std::atomic<int64_t> sample_nanos_{0};
  std::map<int64_t, std::shared_ptr<void>> reorder_;  // owner thread only

  // RV monitors (owner thread only). rv_ticket_ observes every index handed to
  // the consumer — serial or pipelined — so any reorder-buffer slip shows up as a
  // pipeline.ticket_order violation.
  RvSequenceMonitor rv_ticket_{RvInvariant::kTicketOrder};
};

class TrainingPipeline {
 public:
  explicit TrainingPipeline(PipelineSessionOptions options = PipelineSessionOptions());

  // Type-erased item stream. Producer may run on any worker thread and must be
  // thread-safe + index-deterministic; consumer runs on the calling thread, in order.
  using Producer = PipelineSession::Producer;
  using Consumer = PipelineSession::Consumer;

  // Runs producer(i) / consumer(item, i) for i in [0, n); returns stage timings.
  // Exceptions are not expected (library code aborts via MG_CHECK). Implemented as
  // a one-segment PipelineSession.
  PipelineStats Run(int64_t n, const Producer& produce, const Consumer& consume);

  // Typed convenience wrapper.
  template <typename T, typename P, typename C>
  PipelineStats RunTyped(int64_t n, P&& produce, C&& consume) {
    return Run(
        n,
        [&produce](int64_t i) -> std::shared_ptr<void> {
          return std::make_shared<T>(produce(i));
        },
        [&consume](void* item, int64_t i) { consume(*static_cast<T*>(item), i); });
  }

  // Epoch helper shared by both trainers: slices [0, total) into contiguous batches
  // of `batch_size` and pipelines them. produce receives (begin, end, batch_index).
  template <typename T, typename P, typename C>
  PipelineStats RunBatches(int64_t total, int64_t batch_size, P&& produce, C&& consume) {
    MG_CHECK_MSG(batch_size > 0, "batch_size must be > 0");
    const int64_t num_batches = (total + batch_size - 1) / batch_size;
    return RunTyped<T>(
        num_batches,
        [&produce, total, batch_size](int64_t b) {
          const int64_t begin = b * batch_size;
          const int64_t end = begin + batch_size < total ? begin + batch_size : total;
          return produce(begin, end, b);
        },
        std::forward<C>(consume));
  }

  const PipelineSessionOptions& options() const { return options_; }

 private:
  PipelineSessionOptions options_;
};

}  // namespace mariusgnn

#endif  // SRC_PIPELINE_TRAINING_PIPELINE_H_
