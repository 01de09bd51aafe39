// Tests for the pipeline layer: BoundedQueue under multi-producer/multi-consumer
// load (including the occupancy instrumentation), TrainingPipeline's
// order-preserving reassembly and determinism, and PipelineSession's segmented
// runs and teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/pipeline/queue.h"
#include "src/pipeline/training_pipeline.h"
#include "src/util/compute.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace mariusgnn {
namespace {

TEST(BoundedQueue, MultiProducerMultiConsumerDeliversEverything) {
  BoundedQueue<int64_t> q(8);
  const int kProducers = 4;
  const int kConsumers = 3;
  const int64_t kPerProducer = 500;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(static_cast<int64_t>(p) * kPerProducer + i));
      }
    });
  }
  std::mutex mu;
  std::vector<int64_t> received;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::optional<int64_t> v = q.Pop();
        if (!v.has_value()) {
          return;
        }
        std::lock_guard<std::mutex> lock(mu);
        received.push_back(*v);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  for (auto& t : consumers) {
    t.join();
  }
  ASSERT_EQ(received.size(), static_cast<size_t>(kProducers) * kPerProducer);
  std::set<int64_t> unique(received.begin(), received.end());
  EXPECT_EQ(unique.size(), received.size());  // no duplicates, no losses
}

TEST(BoundedQueue, CloseUnblocksBlockedProducers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(0));
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < 3; ++i) {
    producers.emplace_back([&] {
      if (!q.Push(1)) {  // blocks on the full queue until Close
        rejected.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(rejected.load(), 3);
}

TEST(BoundedQueue, CloseUnblocksBlockedConsumers) {
  BoundedQueue<int> q(4);
  std::atomic<int> empty_pops{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      if (!q.Pop().has_value()) {  // blocks on the empty queue until Close
        empty_pops.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(empty_pops.load(), 3);
}

TEST(BoundedQueue, CapacityBackpressure) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(0));
  ASSERT_TRUE(q.Push(1));
  EXPECT_EQ(q.Size(), 2u);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.Push(2);
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());  // held back by capacity
  EXPECT_EQ(q.Pop().value(), 0);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(BoundedQueue, DrainAfterCloseKeepsFifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Push(i));
  }
  q.Close();
  EXPECT_FALSE(q.Push(99));  // rejected after close
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // buffered items drain in order
  }
  EXPECT_FALSE(q.Pop().has_value());  // then closed-and-empty
}

TEST(BoundedQueue, OccupancyWindowTracksWatermarksAndIntegral) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  ASSERT_TRUE(q.Push(3));
  // Hold occupancy 3 for a measurable interval so the integral must register it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(q.Pop().has_value());
  ASSERT_TRUE(q.Pop().has_value());
  const QueueStats stats = q.WindowStats();
  EXPECT_EQ(stats.high_watermark, 3u);
  EXPECT_EQ(stats.low_watermark, 0u);  // the window started on an empty queue
  EXPECT_EQ(stats.pushes, 3);
  EXPECT_EQ(stats.pops, 2);
  // >= 3 items x 20ms, minus generous scheduler slack.
  EXPECT_GT(stats.occupancy_integral, 0.030);
  EXPECT_GT(stats.window_seconds, 0.015);
  EXPECT_GE(stats.MeanOccupancy(), 0.0);
  EXPECT_LE(stats.MeanOccupancy(), 4.0);  // mean can never exceed capacity
}

TEST(BoundedQueue, WindowStatsStartsAFreshWindow) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  (void)q.WindowStats();  // first window: 2 pushes
  const QueueStats fresh = q.WindowStats();
  EXPECT_EQ(fresh.pushes, 0);
  EXPECT_EQ(fresh.pops, 0);
  // Watermarks reset to the occupancy at the window boundary, not to zero.
  EXPECT_EQ(fresh.high_watermark, 2u);
  EXPECT_EQ(fresh.low_watermark, 2u);
}

TEST(BoundedQueue, CapacityOnePingPongStats) {
  // Capacity 1 forces strict producer/consumer alternation: every push blocks
  // until the previous item was popped, the hardest case for both the
  // backpressure path and the occupancy accounting.
  BoundedQueue<int> q(1);
  const int kItems = 1000;
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) {
      ASSERT_TRUE(q.Push(i));
    }
  });
  for (int i = 0; i < kItems; ++i) {
    const std::optional<int> v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // FIFO survives the ping-pong
  }
  producer.join();
  const QueueStats stats = q.WindowStats();
  EXPECT_EQ(stats.pushes, kItems);
  EXPECT_EQ(stats.pops, kItems);
  EXPECT_EQ(stats.high_watermark, 1u);
  EXPECT_EQ(stats.low_watermark, 0u);
  EXPECT_LE(stats.MeanOccupancy(), 1.0);
}

TEST(BoundedQueue, StatsConsistentUnderConcurrentPushPop) {
  BoundedQueue<int64_t> q(8);
  const int kProducers = 4;
  const int kConsumers = 3;
  const int64_t kPerProducer = 400;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(static_cast<int64_t>(p) * kPerProducer + i));
      }
    });
  }
  std::atomic<int64_t> received{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (q.Pop().has_value()) {
        received.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  for (auto& t : consumers) {
    t.join();
  }
  const int64_t total = static_cast<int64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(received.load(), total);
  const QueueStats stats = q.WindowStats();
  EXPECT_EQ(stats.pushes, total);
  EXPECT_EQ(stats.pops, total);
  EXPECT_LE(stats.high_watermark, 8u);  // never above capacity
  EXPECT_EQ(stats.low_watermark, 0u);   // drained at the end
  EXPECT_GE(stats.occupancy_integral, 0.0);
  EXPECT_LE(stats.MeanOccupancy(), 8.0);
}

TEST(TrainingPipeline, OrderedDeliveryWithJitteredProducers) {
  ThreadPool pool(4);
  PipelineSessionOptions options;
  options.workers = 4;
  options.queue_capacity = 3;
  options.pool = &pool;
  TrainingPipeline pipeline(options);

  const int64_t n = 200;
  std::vector<int64_t> consumed;
  const PipelineStats stats = pipeline.RunTyped<int64_t>(
      n,
      [](int64_t i) {
        // Uneven production times force out-of-order completion.
        std::this_thread::sleep_for(std::chrono::microseconds((i * 7) % 300));
        return i * 2;
      },
      [&](int64_t& item, int64_t i) {
        EXPECT_EQ(item, i * 2);
        consumed.push_back(item);
      });
  ASSERT_EQ(consumed.size(), static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(consumed[static_cast<size_t>(i)], i * 2);
  }
  EXPECT_EQ(stats.num_items, n);
  EXPECT_GT(stats.sample_seconds, 0.0);
}

TEST(TrainingPipeline, WorkerCountNeverChangesConsumedSequence) {
  ThreadPool pool(4);
  // A producer that is a pure function of the index (the determinism contract).
  auto produce = [](int64_t i) { return MixSeed(42, static_cast<uint64_t>(i)); };
  std::vector<std::vector<uint64_t>> runs;
  for (int workers : {0, 1, 2, 4}) {
    PipelineSessionOptions options;
    options.workers = workers;
    options.queue_capacity = 2;
    options.pool = &pool;
    TrainingPipeline pipeline(options);
    std::vector<uint64_t> out;
    pipeline.RunTyped<uint64_t>(
        97, produce, [&](uint64_t& item, int64_t) { out.push_back(item); });
    runs.push_back(std::move(out));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r], runs[0]);
  }
}

TEST(TrainingPipeline, SerialModeRunsInline) {
  TrainingPipeline pipeline(PipelineSessionOptions{0, 4, nullptr});
  const std::thread::id caller = std::this_thread::get_id();
  int64_t produced_on_caller = 0;
  const PipelineStats stats = pipeline.RunTyped<int>(
      10,
      [&](int64_t i) {
        if (std::this_thread::get_id() == caller) {
          ++produced_on_caller;
        }
        return static_cast<int>(i);
      },
      [](int&, int64_t) {});
  EXPECT_EQ(produced_on_caller, 10);
  EXPECT_EQ(stats.num_items, 10);
  EXPECT_DOUBLE_EQ(stats.stall_seconds, 0.0);
}

TEST(TrainingPipeline, EmptyRunIsNoop) {
  TrainingPipeline pipeline;
  int calls = 0;
  const PipelineStats stats = pipeline.RunTyped<int>(
      0, [&](int64_t) { return ++calls; }, [&](int&, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats.num_items, 0);
}

TEST(TrainingPipeline, RunBatchesSlicesTheFullRange) {
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;
  options.pool = &pool;
  TrainingPipeline pipeline(options);
  struct Slice {
    int64_t begin, end, batch;
  };
  std::vector<Slice> seen;
  pipeline.RunBatches<Slice>(
      103, 10,
      [](int64_t begin, int64_t end, int64_t b) { return Slice{begin, end, b}; },
      [&](Slice& s, int64_t i) {
        EXPECT_EQ(s.batch, i);
        seen.push_back(s);
      });
  ASSERT_EQ(seen.size(), 11u);  // ceil(103 / 10)
  int64_t covered = 0;
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].begin, static_cast<int64_t>(i) * 10);
    covered += seen[i].end - seen[i].begin;
  }
  EXPECT_EQ(covered, 103);
  EXPECT_EQ(seen.back().end, 103);
}

TEST(TrainingPipeline, MoreWorkersThanPoolThreadsStillCompletes) {
  ThreadPool pool(1);  // workers serialize on the single pool thread
  PipelineSessionOptions options;
  options.workers = 4;
  options.queue_capacity = 2;
  options.pool = &pool;
  TrainingPipeline pipeline(options);
  std::vector<int64_t> consumed;
  pipeline.RunTyped<int64_t>(
      50, [](int64_t i) { return i; },
      [&](int64_t& item, int64_t i) {
        EXPECT_EQ(item, i);
        consumed.push_back(item);
      });
  EXPECT_EQ(consumed.size(), 50u);
}

TEST(TrainingPipeline, ComputeChunksOnSaturatedPipelinePoolCannotDeadlock) {
  // The stage-3 deadlock hazard: every pool thread is a pipeline worker that can
  // block on the batch-window gate or the bounded queue during compute, so compute
  // helper tasks submitted to the same pool may never run. ForEachChunk must make
  // progress through the calling thread alone — and still produce the same bits.
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;  // saturate the pool
  options.queue_capacity = 1;
  options.pool = &pool;
  TrainingPipeline pipeline(options);
  ComputeContext ctx;
  ctx.pool = &pool;

  const int64_t n = 20000;  // several chunks at every grain
  std::vector<float> expected(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    expected[static_cast<size_t>(i)] = static_cast<float>(i) * 0.5f;
  }
  int64_t batches_ok = 0;
  pipeline.RunTyped<int64_t>(
      30, [](int64_t i) { return i; },
      [&](int64_t& item, int64_t i) {
        EXPECT_EQ(item, i);
        // Consumer-side parallel compute on the saturated pool.
        std::vector<float> out(static_cast<size_t>(n));
        ForEachChunk(&ctx, n, kComputeGrainElems,
                     [&](int64_t, int64_t begin, int64_t end) {
                       for (int64_t k = begin; k < end; ++k) {
                         out[static_cast<size_t>(k)] = static_cast<float>(k) * 0.5f;
                       }
                     });
        if (out == expected) {
          ++batches_ok;
        }
      });
  EXPECT_EQ(batches_ok, 30);
}

// ---------------------------------------------------------------------------
// PipelineSession: segmented/resumable runs. The ticket counter, window gate, and
// reorder buffer carry across segment boundaries, so the consumed sequence is
// always the full announced stream in index order — bitwise-equal to a one-shot
// run — no matter how the stream is cut into segments or how many workers run.

std::shared_ptr<void> SeededItem(uint64_t seed, int64_t i) {
  return std::make_shared<uint64_t>(MixSeed(seed, static_cast<uint64_t>(i)));
}

TEST(PipelineSession, SegmentsMatchOneShotRunAtAnyWorkerCount) {
  ThreadPool pool(4);
  const uint64_t kSeed = 99;
  const int64_t n = 200;

  // Reference: the one-shot serial pipeline over the same pure producer.
  std::vector<uint64_t> expected;
  TrainingPipeline(PipelineSessionOptions{0, 3, nullptr})
      .Run(
          n, [&](int64_t i) { return SeededItem(kSeed, i); },
          [&](void* item, int64_t) { expected.push_back(*static_cast<uint64_t*>(item)); });

  for (int workers : {1, 4}) {
    PipelineSessionOptions options;
    options.workers = workers;
    options.queue_capacity = 3;
    options.pool = &pool;
    std::vector<uint64_t> got;
    PipelineSession session(
        options, [&](int64_t i) { return SeededItem(kSeed, i); },
        [&](void* item, int64_t) { got.push_back(*static_cast<uint64_t*>(item)); });

    // Uneven segments, including a one-item segment and an empty one.
    for (int64_t segment : {1, 49, 0, 10, 90, 50}) {
      const PipelineStats ps = session.RunSegment(segment);
      EXPECT_EQ(ps.num_items, segment);
      EXPECT_EQ(ps.workers, workers);
    }
    EXPECT_EQ(session.workers(), workers);
    EXPECT_EQ(session.consumed(), n);
    EXPECT_EQ(got, expected) << workers << " workers";
  }
}

TEST(PipelineSession, ExtendAheadOfConsumeKeepsOrder) {
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;
  options.queue_capacity = 2;
  options.pool = &pool;
  std::vector<int64_t> got;
  PipelineSession session(
      options,
      [](int64_t i) -> std::shared_ptr<void> { return std::make_shared<int64_t>(i * 3); },
      [&](void* item, int64_t i) {
        EXPECT_EQ(*static_cast<int64_t*>(item), i * 3);
        got.push_back(*static_cast<int64_t*>(item));
      });
  session.Extend(60);  // announce everything; consume in uneven pieces
  EXPECT_EQ(session.announced(), 60);
  session.Consume(10);
  session.Consume(1);
  session.Consume(49);
  ASSERT_EQ(got.size(), 60u);
  for (int64_t i = 0; i < 60; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], i * 3);
  }
}

TEST(PipelineSession, SerialSessionRunsInlineAndSupportsSegments) {
  PipelineSessionOptions options;
  options.workers = 0;
  const std::thread::id caller = std::this_thread::get_id();
  int64_t on_caller = 0;
  std::vector<int64_t> got;
  PipelineSession session(
      options,
      [&](int64_t i) -> std::shared_ptr<void> {
        if (std::this_thread::get_id() == caller) {
          ++on_caller;
        }
        return std::make_shared<int64_t>(i);
      },
      [&](void* item, int64_t) { got.push_back(*static_cast<int64_t*>(item)); });
  session.RunSegment(5);
  const PipelineStats ps = session.RunSegment(7);
  EXPECT_EQ(ps.num_items, 7);
  EXPECT_DOUBLE_EQ(ps.stall_seconds, 0.0);
  EXPECT_EQ(on_caller, 12);
  EXPECT_EQ(got.size(), 12u);
}

TEST(PipelineSession, ReportsQueueOccupancyPerSegment) {
  // Fast producers + a slow consumer pin the queue at capacity, so the segment's
  // time-weighted occupancy must come out high.
  ThreadPool pool(4);
  PipelineSessionOptions options;
  options.workers = 4;
  options.queue_capacity = 2;
  options.pool = &pool;
  PipelineSession session(
      options,
      [](int64_t i) -> std::shared_ptr<void> { return std::make_shared<int64_t>(i); },
      [](void*, int64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
  const PipelineStats ps = session.RunSegment(40);
  EXPECT_EQ(ps.workers, 4);
  EXPECT_GE(ps.queue_occupancy_mean, 0.0);
  EXPECT_LE(ps.queue_occupancy_mean, 1.0);
  EXPECT_GT(ps.queue_occupancy_mean, 0.5);  // producers were always ahead
}

TEST(PipelineSession, TeardownWithBlockedProducersDoesNotDeadlock) {
  // The close-while-producer-blocked case: two items are announced but never
  // consumed. The producer whose item fills the one-slot queue finds no ticket
  // left and parks on the window gate; the other is blocked in Push behind the
  // full queue (or about to enter it). Teardown must wake the gate and close the
  // queue under the blocked Push rather than deadlock; ASan's leak check covers
  // the produced-but-unconsumed items.
  ThreadPool pool(2);
  PipelineSessionOptions options;
  options.workers = 2;
  options.queue_capacity = 1;
  options.pool = &pool;
  std::atomic<int64_t> produced{0};
  {
    PipelineSession session(
        options,
        [&produced](int64_t i) -> std::shared_ptr<void> {
          produced.fetch_add(1);
          return std::make_shared<int64_t>(i);
        },
        [](void*, int64_t) {});
    session.Extend(2);
    // Wait until the queue is full and both items have been produced.
    for (int spin = 0;
         spin < 5000 && (session.queue_size() < 1 || produced.load() < 2); ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EXPECT_EQ(session.queue_size(), 1u);
    EXPECT_EQ(produced.load(), 2);
    // Destroy with 2 announced, 0 consumed.
  }
  SUCCEED();
}

// Randomized stress: random producer delays, random segment sizes, and Consume
// calls that stop short of the announced limit, so segments start with the
// queue empty, full (producers blocked mid-push), or holding run-ahead in the
// reorder buffer. Asserts in-order delivery, no deadlock (the test completing
// at all), and bitwise-equal output vs a serial run, at 1 to 4 workers. Runs
// under TSan in CI like the rest of this suite.
TEST(PipelineSession, StressRandomDelaysAndSegments) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const int64_t n = 160;
    auto produce = [seed](int64_t i) -> std::shared_ptr<void> {
      // Deterministic per-index jitter; no shared RNG on worker threads.
      std::this_thread::sleep_for(std::chrono::microseconds(
          MixSeed(seed ^ 0xABCD, static_cast<uint64_t>(i)) % 300));
      return SeededItem(seed, i);
    };
    std::vector<uint64_t> expected;
    TrainingPipeline(PipelineSessionOptions{0, 2, nullptr})
        .Run(n, produce, [&](void* item, int64_t) {
          expected.push_back(*static_cast<uint64_t*>(item));
        });

    PipelineSessionOptions options;
    options.workers = static_cast<int>(seed);
    options.queue_capacity = 2;
    options.pool = &pool;
    std::vector<uint64_t> got;
    Rng rng(seed * 7919);
    {
      PipelineSession session(options, produce, [&](void* item, int64_t) {
        got.push_back(*static_cast<uint64_t*>(item));
      });
      int64_t announced = 0;
      int64_t consumed = 0;
      while (consumed < n) {
        if (announced < n && (announced == consumed || rng.UniformInt(0, 2) == 0)) {
          const int64_t seg = std::min<int64_t>(n - announced, rng.UniformInt(1, 33));
          session.Extend(seg);
          announced += seg;
        }
        if (rng.UniformInt(0, 3) == 0 && announced - consumed >
                static_cast<int64_t>(options.queue_capacity) + session.workers()) {
          // Let the queue fill (producers blocked mid-push) before consuming.
          for (int spin = 0;
               spin < 5000 && session.queue_size() < options.queue_capacity; ++spin) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
        const int64_t take =
            std::min<int64_t>(announced - consumed, rng.UniformInt(1, 41));
        session.Consume(take);
        consumed += take;
      }
      EXPECT_EQ(session.consumed(), n);
    }
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

// Stage-1 accounting: every production is counted by the segment that consumes
// it. With one-batch segments a worker woken by Extend can finish before the
// owner enters Consume (here the owner sleeps in between, so it always does);
// that production's time must still reach sample_seconds, so the summed
// stage-1 time covers every producer sleep.
TEST(PipelineSession, SampleSecondsCountsEveryProduction) {
  ThreadPool pool(2);
  constexpr auto kProduce = std::chrono::milliseconds(2);
  constexpr int64_t kSegments = 12;
  for (int workers : {1, 2}) {
    PipelineSessionOptions options;
    options.workers = workers;
    options.queue_capacity = 2;
    options.pool = &pool;
    PipelineSession session(
        options,
        [&](int64_t i) -> std::shared_ptr<void> {
          std::this_thread::sleep_for(kProduce);
          return std::make_shared<int64_t>(i);
        },
        [&](void*, int64_t) { std::this_thread::sleep_for(2 * kProduce); });
    double sample_seconds = 0.0;
    for (int64_t s = 0; s < kSegments; ++s) {
      session.Extend(1);
      std::this_thread::sleep_for(2 * kProduce);
      sample_seconds += session.Consume(1).sample_seconds;
    }
    EXPECT_GE(sample_seconds,
              kSegments * std::chrono::duration<double>(kProduce).count())
        << workers << " workers";
  }
}

}  // namespace
}  // namespace mariusgnn
