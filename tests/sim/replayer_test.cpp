#include "sim/replayer.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::sim {
namespace {

SsdConfig cfg() { return SsdConfig::scaled(1024); }

trace::TraceRecord rec(SimTime arrival, OpType op, std::uint64_t offset,
                       std::uint32_t size) {
  return trace::TraceRecord{arrival, op, offset, size};
}

TEST(Replayer, ReplaysAllRecords) {
  Ssd ssd(cfg(), "IPU");
  std::vector<trace::TraceRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(rec(ms_to_ns(i + 1.0), OpType::kWrite,
                          static_cast<std::uint64_t>(i) * 16384, 4096));
  }
  trace::VectorTraceSource src(std::move(records));
  Replayer replayer(ssd);
  const auto result = replayer.replay(src);
  EXPECT_EQ(result.requests, 100u);
  EXPECT_EQ(result.latency.write_count(), 100u);
  EXPECT_EQ(result.latency.read_count(), 0u);
  EXPECT_GT(result.makespan, ms_to_ns(100.0));
}

TEST(Replayer, MaxRequestsLimit) {
  Ssd ssd(cfg(), "Baseline");
  std::vector<trace::TraceRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(rec(ms_to_ns(i + 1.0), OpType::kWrite, 0, 4096));
  }
  trace::VectorTraceSource src(std::move(records));
  Replayer replayer(ssd);
  const auto result = replayer.replay(src, 10);
  EXPECT_EQ(result.requests, 10u);
}

TEST(Replayer, CappedReplayConsumesExactlyMaxRequests) {
  // The decode worker runs ahead of the simulation, but never past the
  // cap: the source's next record is the one right after it.
  for (const std::uint64_t cap : {std::uint64_t{10}, std::uint64_t{300}}) {
    SCOPED_TRACE(cap);
    {
      std::vector<trace::TraceRecord> records;
      for (int i = 0; i < 500; ++i) {
        records.push_back(rec(ms_to_ns(i + 1.0), OpType::kWrite,
                              static_cast<std::uint64_t>(i) * 16384, 4096));
      }
      Ssd ssd(cfg(), "Baseline");
      trace::VectorTraceSource src(records);
      EXPECT_EQ(Replayer(ssd).replay(src, cap).requests, cap);
      trace::TraceRecord next;
      ASSERT_TRUE(src.next(next));
      EXPECT_EQ(next, records[cap]);
    }
    {
      Ssd ssd(cfg(), "IPU");
      const trace::TraceProfile& profile = trace::profile_by_name("ts0");
      trace::SyntheticWorkload reference(profile, ssd.logical_bytes(), 0.001);
      const std::vector<trace::TraceRecord> records = trace::collect(reference);
      ASSERT_GT(records.size(), cap);
      trace::SyntheticWorkload src(profile, ssd.logical_bytes(), 0.001);
      EXPECT_EQ(Replayer(ssd).replay(src, cap).requests, cap);
      trace::TraceRecord next;
      ASSERT_TRUE(src.next(next));
      EXPECT_EQ(next, records[cap]);
    }
  }
}

/// 4 KiB writes to distinct LSNs (record i writes LSN 4i); throws from its
/// third next_batch call, after writing part of that batch.
class FailingSource final : public trace::TraceSource {
 public:
  static constexpr int kFailCall = 3;
  bool next(trace::TraceRecord& out) override {
    out = rec(us_to_ns(100.0) * (produced_ + 1), OpType::kWrite,
              produced_ * 4 * kSubpageBytes, 4096);
    ++produced_;
    return true;
  }
  std::size_t next_batch(std::span<trace::TraceRecord> out) override {
    if (++calls_ == kFailCall) {
      for (std::size_t i = 0; i < out.size() / 2; ++i) next(out[i]);
      throw std::runtime_error("unreadable record");
    }
    for (trace::TraceRecord& r : out) next(r);
    return out.size();
  }
  void reset() override { produced_ = 0; }

 private:
  int calls_ = 0;
  std::uint64_t produced_ = 0;
};

TEST(Replayer, SourceExceptionReachesTheCallerAfterTheEarlierBatches) {
  Ssd ssd(cfg(), "IPU");
  FailingSource src;
  Replayer replayer(ssd);
  try {
    replayer.replay(src);
    ADD_FAILURE() << "the source's exception did not reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "unreadable record");
  }
  // Every record of the batches before the failing one was submitted, and
  // none of the records the failing batch wrote before it threw.
  const std::uint64_t submitted =
      (FailingSource::kFailCall - 1) * trace::DecodeAhead::kBatch;
  const auto& map = ssd.scheme().device_map();
  for (std::uint64_t i = 0; i < submitted + trace::DecodeAhead::kBatch; ++i) {
    EXPECT_EQ(map.mapped(4 * i), i < submitted) << "record " << i;
  }
}

/// Throws on its first tick, mid-replay.
class ThrowingProgress final : public perf::ProgressSink {
 public:
  void begin(std::uint64_t) override {}
  void advance(std::uint64_t done) override {
    ++ticks;
    throw std::runtime_error("progress sink failed at " + std::to_string(done));
  }
  int ticks = 0;
};

TEST(Replayer, ThrowingProgressSinkUnwindsTheWalk) {
  // The sink ticks every 16,384 requests; the worker is still decoding
  // when it throws, so the walk must stop and join it while unwinding.
  Ssd ssd(cfg(), "Baseline");
  const trace::TraceProfile& profile = trace::profile_by_name("ts0");
  trace::SyntheticWorkload src(profile, ssd.logical_bytes(), 0.05);
  ASSERT_GT(src.expected_records(), 3u * 16384);
  ThrowingProgress progress;
  Replayer replayer(ssd);
  replayer.set_progress(&progress);
  try {
    replayer.replay(src);
    ADD_FAILURE() << "the sink's exception did not reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "progress sink failed at 16384");
  }
  EXPECT_EQ(progress.ticks, 1);
}

TEST(Replayer, SeparatesReadAndWriteLatency) {
  Ssd ssd(cfg(), "IPU");
  std::vector<trace::TraceRecord> records;
  records.push_back(rec(ms_to_ns(1.0), OpType::kWrite, 0, 16384));
  records.push_back(rec(ms_to_ns(100.0), OpType::kRead, 0, 16384));
  trace::VectorTraceSource src(std::move(records));
  Replayer replayer(ssd);
  const auto result = replayer.replay(src);
  EXPECT_GT(result.latency.avg_write_ms(), result.latency.avg_read_ms());
}

TEST(Replayer, QueueDepthTracksOverlap) {
  // Back-to-back arrivals while the device is busy -> queue builds.
  Ssd ssd(cfg(), "Baseline");
  std::vector<trace::TraceRecord> burst;
  for (int i = 0; i < 64; ++i) {
    burst.push_back(rec(1000 + i, OpType::kWrite,
                        static_cast<std::uint64_t>(i) * 16384, 16384));
  }
  trace::VectorTraceSource src(std::move(burst));
  Replayer replayer(ssd);
  const auto result = replayer.replay(src);
  EXPECT_GT(result.avg_queue_depth, 1.0);
  EXPECT_GT(result.max_queue_depth, 2u);
}

TEST(Replayer, IdleArrivalsKeepQueueEmpty) {
  Ssd ssd(cfg(), "Baseline");
  std::vector<trace::TraceRecord> slow;
  for (int i = 0; i < 20; ++i) {
    slow.push_back(rec(ms_to_ns(100.0 * (i + 1)), OpType::kWrite,
                       static_cast<std::uint64_t>(i) * 16384, 4096));
  }
  trace::VectorTraceSource src(std::move(slow));
  Replayer replayer(ssd);
  const auto result = replayer.replay(src);
  // Every request completes long before the next arrives: no arrival
  // ever observes an outstanding request, while the time-weighted depth
  // is the (small, positive) busy fraction of the replay window.
  EXPECT_DOUBLE_EQ(result.avg_queue_depth_at_arrival, 0.0);
  EXPECT_GT(result.avg_queue_depth, 0.0);
  EXPECT_LT(result.avg_queue_depth, 0.1);
}

TEST(Replayer, TimeWeightedQueueDepthClosedForm) {
  // Two non-overlapping writes of identical latency L, arrivals t1 and
  // t2 with t2 > t1 + L. The depth is 1 for 2L of simulated time and 0
  // otherwise, so the time-weighted mean over [t1, t2 + L] is
  // 2L / (t2 + L - t1); the at-arrival sample never sees a queue.
  Ssd ssd(cfg(), "Baseline");
  const SimTime t1 = ms_to_ns(1.0);
  const SimTime t2 = ms_to_ns(201.0);
  std::vector<trace::TraceRecord> records = {
      rec(t1, OpType::kWrite, 0, 4096),
      rec(t2, OpType::kWrite, 1 << 20, 4096)};
  trace::VectorTraceSource src(std::move(records));
  Replayer replayer(ssd);
  const auto result = replayer.replay(src);
  ASSERT_EQ(result.requests, 2u);
  EXPECT_DOUBLE_EQ(result.avg_queue_depth_at_arrival, 0.0);
  const double busy_ns = 2.0 * result.latency.avg_write_ms() * 1e6;
  const double span_ns = static_cast<double>(result.makespan - t1);
  EXPECT_NEAR(result.avg_queue_depth, busy_ns / span_ns, 1e-12);
}

TEST(Replayer, EmptySource) {
  Ssd ssd(cfg(), "Baseline");
  trace::VectorTraceSource src({});
  Replayer replayer(ssd);
  const auto result = replayer.replay(src);
  EXPECT_EQ(result.requests, 0u);
  EXPECT_EQ(result.makespan, 0u);
}

}  // namespace
}  // namespace ppssd::sim
