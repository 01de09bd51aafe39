// Tests for src/util/rv_monitor.h: the determinism hash, the RV runtime
// (counters, sinks, enable flag), one negative test per monitor injecting its
// violation, the abort-sink death path, and integration checks that the real
// pipeline/IO components run violation-free.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/pipeline/queue.h"
#include "src/pipeline/training_pipeline.h"
#include "src/storage/disk.h"
#include "src/storage/io_engine.h"
#include "src/util/binary_io.h"
#include "src/util/rv_monitor.h"

namespace mariusgnn {
namespace {

// Counts violations per invariant without logging or aborting; every test
// installs one so real violations from other tests cannot leak across and the
// injected ones are observable.
class CountingRvSink : public RvSink {
 public:
  void OnViolation(const RvViolation& violation) override {
    ++counts_[static_cast<int>(violation.invariant)];
    last_detail_ = violation.detail;
  }
  int count(RvInvariant inv) const { return counts_[static_cast<int>(inv)]; }
  int total() const {
    int t = 0;
    for (int c : counts_) {
      t += c;
    }
    return t;
  }
  const std::string& last_detail() const { return last_detail_; }

 private:
  int counts_[static_cast<int>(RvInvariant::kCount)] = {};
  std::string last_detail_;
};

// Installs a counting sink and zeroes the global counters for the test's scope.
class RvTestScope {
 public:
  RvTestScope() : guard_(&sink_) { RvRuntime::Global().ResetViolations(); }
  ~RvTestScope() { RvRuntime::Global().ResetViolations(); }
  CountingRvSink& sink() { return sink_; }

 private:
  CountingRvSink sink_;
  ScopedRvSink guard_;
};

// --- DeterminismHash ----------------------------------------------------------

TEST(DeterminismHash, EmptyIsOffsetBasis) {
  DeterminismHash h;
  EXPECT_EQ(h.value(), kFnv64OffsetBasis);
  h.Reset();
  EXPECT_EQ(h.value(), kFnv64OffsetBasis);
}

TEST(DeterminismHash, MatchesKnownFnv1aVectors) {
  // Reference values of the standard 64-bit FNV-1a test vectors.
  DeterminismHash h;
  h.Fold("a", 1);
  EXPECT_EQ(h.value(), 0xaf63dc4c8601ec8cULL);
  h.Reset();
  h.Fold("foobar", 6);
  EXPECT_EQ(h.value(), 0x85944171f73967e8ULL);
}

TEST(DeterminismHash, ChunkingDoesNotMatter) {
  const char data[] = "determinism";
  DeterminismHash whole;
  whole.Fold(data, sizeof(data) - 1);
  DeterminismHash bytes;
  for (size_t i = 0; i + 1 < sizeof(data); ++i) {
    bytes.Fold(&data[i], 1);
  }
  EXPECT_EQ(whole.value(), bytes.value());
}

TEST(DeterminismHash, OrderSensitive) {
  DeterminismHash ab;
  ab.FoldFloat(1.0f);
  ab.FoldFloat(2.0f);
  DeterminismHash ba;
  ba.FoldFloat(2.0f);
  ba.FoldFloat(1.0f);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(DeterminismHash, FoldFloatUsesBitPattern) {
  DeterminismHash pos;
  pos.FoldFloat(0.0f);
  DeterminismHash neg;
  neg.FoldFloat(-0.0f);
  EXPECT_NE(pos.value(), neg.value());  // 0.0f == -0.0f but different bits

  DeterminismHash a;
  a.FoldFloat(1.5f);
  DeterminismHash b;
  const float v = 1.5f;
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  b.Fold(&bits, sizeof(bits));
  EXPECT_EQ(a.value(), b.value());
}

TEST(DeterminismHash, FoldU64MatchesFoldBytes) {
  const uint64_t v = 0x0123456789abcdefULL;
  DeterminismHash a;
  a.FoldU64(v);
  DeterminismHash b;
  b.Fold(&v, sizeof(v));
  EXPECT_EQ(a.value(), b.value());
}

// --- RvRuntime ----------------------------------------------------------------

TEST(RvRuntime, CountsPerInvariantAndTotal) {
  RvTestScope scope;
  RvRuntime& rt = RvRuntime::Global();
  rt.Report(RvInvariant::kTicketOrder, "injected");
  rt.Report(RvInvariant::kTicketOrder, "injected");
  rt.Report(RvInvariant::kIoTagOrder, "injected");
  EXPECT_EQ(rt.violations(RvInvariant::kTicketOrder), 2u);
  EXPECT_EQ(rt.violations(RvInvariant::kIoTagOrder), 1u);
  EXPECT_EQ(rt.violations(RvInvariant::kServeEpochPin), 0u);
  EXPECT_EQ(rt.TotalViolations(), 3u);
  EXPECT_EQ(scope.sink().total(), 3);
  rt.ResetViolations();
  EXPECT_EQ(rt.TotalViolations(), 0u);
  EXPECT_EQ(rt.violations(RvInvariant::kTicketOrder), 0u);
}

TEST(RvRuntime, DisabledMonitorsObserveNothing) {
  RvTestScope scope;
  RvRuntime::Global().set_enabled(false);
  RvSequenceMonitor seq(RvInvariant::kTicketOrder);
  seq.Observe(5);
  seq.Observe(3);  // would violate when enabled
  RvRuntime::Global().set_enabled(true);
  EXPECT_EQ(scope.sink().total(), 0);
}

TEST(RvRuntime, SetSinkReturnsPrevious) {
  CountingRvSink a;
  CountingRvSink b;
  RvRuntime& rt = RvRuntime::Global();
  RvSink* orig = rt.set_sink(&a);
  EXPECT_EQ(rt.set_sink(&b), &a);
  EXPECT_EQ(rt.set_sink(orig), &b);
}

TEST(RvRuntime, InvariantNamesAreStable) {
  EXPECT_STREQ(RvInvariantName(RvInvariant::kTicketOrder), "pipeline.ticket_order");
  EXPECT_STREQ(RvInvariantName(RvInvariant::kQueueOccupancy),
               "pipeline.queue_occupancy");
  EXPECT_STREQ(RvInvariantName(RvInvariant::kIoTagOrder), "io_engine.tag_order");
  EXPECT_STREQ(RvInvariantName(RvInvariant::kServeEpochPin), "serve.epoch_pin");
}

// --- Negative tests: each monitor trips on its injected violation -------------

TEST(RvSequenceMonitorTest, TripsOnOutOfOrderTicket) {
  RvTestScope scope;
  RvSequenceMonitor seq(RvInvariant::kTicketOrder);
  seq.Observe(0);
  seq.Observe(1);
  seq.Observe(2);
  EXPECT_EQ(scope.sink().count(RvInvariant::kTicketOrder), 0);
  seq.Observe(1);  // injected out-of-order delivery
  EXPECT_EQ(scope.sink().count(RvInvariant::kTicketOrder), 1);
  seq.Observe(2);  // repeat of the high-water mark also trips
  EXPECT_EQ(scope.sink().count(RvInvariant::kTicketOrder), 2);
  seq.Observe(3);  // recovery: the high-water mark survived the breach
  EXPECT_EQ(scope.sink().count(RvInvariant::kTicketOrder), 2);
  seq.Reset();
  seq.Observe(0);  // a reset starts a fresh sequence
  EXPECT_EQ(scope.sink().count(RvInvariant::kTicketOrder), 2);
}

TEST(RvWatermarkMonitorTest, TripsOnWatermarkBreach) {
  RvTestScope scope;
  RvWatermarkMonitor wm(RvInvariant::kQueueOccupancy);
  wm.ObserveOccupancy(4, 4);
  wm.ObserveWindow(0, 4, 4);
  EXPECT_EQ(scope.sink().count(RvInvariant::kQueueOccupancy), 0);
  wm.ObserveOccupancy(5, 4);  // injected: occupancy beyond capacity
  EXPECT_EQ(scope.sink().count(RvInvariant::kQueueOccupancy), 1);
  wm.ObserveWindow(3, 2, 4);  // injected: low watermark above high
  EXPECT_EQ(scope.sink().count(RvInvariant::kQueueOccupancy), 2);
  wm.ObserveWindow(0, 5, 4);  // injected: high watermark beyond capacity
  EXPECT_EQ(scope.sink().count(RvInvariant::kQueueOccupancy), 3);
}

TEST(RvTagOrderMonitorTest, TripsOnSameTagReorder) {
  RvTestScope scope;
  RvTagOrderMonitor tag(RvInvariant::kIoTagOrder);
  tag.ObserveStart(1, 0);
  tag.ObserveStart(1, 2);
  tag.ObserveStart(2, 1);  // different tags may reorder freely
  tag.ObserveStart(2, 5);
  EXPECT_EQ(scope.sink().count(RvInvariant::kIoTagOrder), 0);
  tag.ObserveStart(1, 1);  // injected: same-tag request started out of order
  EXPECT_EQ(scope.sink().count(RvInvariant::kIoTagOrder), 1);
  tag.ObserveStart(2, 5);  // injected: same seq starting twice
  EXPECT_EQ(scope.sink().count(RvInvariant::kIoTagOrder), 2);
  tag.Reset();
  tag.ObserveStart(1, 0);  // fresh engine, fresh sequences
  EXPECT_EQ(scope.sink().count(RvInvariant::kIoTagOrder), 2);
}

TEST(RvEpochPinMonitorTest, TripsOnMixedEpochAnswer) {
  RvTestScope scope;
  RvEpochPinMonitor pin(RvInvariant::kServeEpochPin);
  pin.ObserveAnswer(3, 3);
  EXPECT_EQ(scope.sink().count(RvInvariant::kServeEpochPin), 0);
  pin.ObserveAnswer(3, 4);  // injected: answer from a different epoch
  EXPECT_EQ(scope.sink().count(RvInvariant::kServeEpochPin), 1);
  EXPECT_NE(scope.sink().last_detail().find("pinned to epoch 3"), std::string::npos);
}

// --- AbortRvSink death path ---------------------------------------------------

TEST(AbortRvSinkDeathTest, AbortsOnViolation) {
  EXPECT_DEATH(
      {
        AbortRvSink abort_sink;
        ScopedRvSink guard(&abort_sink);
        RvSequenceMonitor seq(RvInvariant::kTicketOrder);
        seq.Observe(1);
        seq.Observe(0);
      },
      "RV violation \\[pipeline.ticket_order\\]");
}

// --- Integration: real components run violation-free --------------------------

TEST(RvIntegration, BoundedQueueRunsViolationFree) {
  RvTestScope scope;
  BoundedQueue<int> queue(3);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.Push(i));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.Pop().has_value());
    }
    (void)queue.WindowStats();
  }
  EXPECT_EQ(scope.sink().total(), 0);
}

TEST(RvIntegration, PipelineSessionSegmentsRunViolationFree) {
  RvTestScope scope;
  PipelineSessionOptions options;
  options.workers = 2;
  options.queue_capacity = 2;
  std::vector<int64_t> consumed;
  PipelineSession session(
      options,
      [](int64_t i) -> std::shared_ptr<void> { return std::make_shared<int64_t>(i); },
      [&consumed](void* item, int64_t i) {
        EXPECT_EQ(*static_cast<int64_t*>(item), i);
        consumed.push_back(i);
      });
  session.RunSegment(8);
  session.RunSegment(8);
  session.RunSegment(8);
  ASSERT_EQ(consumed.size(), 24u);
  for (size_t i = 0; i < consumed.size(); ++i) {
    EXPECT_EQ(consumed[i], static_cast<int64_t>(i));
  }
  EXPECT_EQ(scope.sink().total(), 0);
}

TEST(RvIntegration, IoEngineRunsViolationFree) {
  RvTestScope scope;
  SimulatedDisk disk(TempPath("rv_io_engine"));
  disk.Resize(1 << 16);
  {
    IoEngineOptions options;
    options.queue_depth = 4;
    IoEngine engine(&disk, options);
    std::vector<char> wbuf(512, 'x');
    std::vector<char> rbuf(512);
    for (int tag = 0; tag < 4; ++tag) {
      for (int round = 0; round < 4; ++round) {
        const uint64_t offset = static_cast<uint64_t>(tag) * 4096;
        engine.SubmitWrite(tag, wbuf.data(), wbuf.size(), offset, {});
        engine.SubmitRead(tag, rbuf.data(), rbuf.size(), offset, {});
      }
    }
    engine.Drain();
  }
  EXPECT_EQ(scope.sink().count(RvInvariant::kIoTagOrder), 0);
}

}  // namespace
}  // namespace mariusgnn
