// The replay as a two-stage pipeline (DESIGN.md §10, "Price on a worker
// thread"): this thread places, a worker prices. Its ReplayResult and the
// device it leaves must be those of a plain per-record drain-then-enqueue
// loop, also when one request's ops outgrow a slot's reserved buffer and
// when the walk is capped; and every failure, on either side, must reach
// the caller with both workers joined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/state_io.h"
#include "common/units.h"
#include "sim/placed_ring.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::sim {
namespace {

void prefill(Ssd& ssd) {
  const auto& geom = ssd.scheme().array().geometry();
  ssd.scheme().prefill_mlc(
      geom.logical_subpages(),
      ssd.scheme().blocks().gc_threshold_blocks(CellMode::kMlc) + 3);
}

/// Replayer::replay's folds on one thread, with no walk: each record
/// drains the completions before its arrival, then is placed and enqueued.
/// Also reports the most ops one request placed.
struct PlainReplay {
  ReplayResult result;
  std::size_t max_request_ops = 0;
  bool background_in_max = false;
};

PlainReplay plain_replay(Ssd& ssd, std::span<const trace::TraceRecord> recs) {
  PlainReplay out;
  ReplayResult& result = out.result;
  std::uint64_t depth = 0;
  double depth_integral = 0.0;
  double at_arrival_sum = 0.0;
  SimTime first_arrival = kNoTime;
  SimTime prev_event = 0;
  const auto harvest = [&](const Ssd::HostCompletion& c) {
    if (c.finish > prev_event) {
      depth_integral += static_cast<double>(depth) *
                        static_cast<double>(c.finish - prev_event);
      prev_event = c.finish;
    }
    --depth;
    result.latency.record(c.op, c.latency());
    result.makespan = std::max(result.makespan, c.finish);
  };
  std::vector<cache::PhysOp> ops;
  for (const trace::TraceRecord& rec : recs) {
    ssd.drain_completions(rec.arrival, harvest);
    if (rec.arrival > prev_event) {
      depth_integral += static_cast<double>(depth) *
                        static_cast<double>(rec.arrival - prev_event);
      prev_event = rec.arrival;
    }
    at_arrival_sum += static_cast<double>(depth);
    result.max_queue_depth = std::max(result.max_queue_depth, depth);
    if (first_arrival == kNoTime) first_arrival = rec.arrival;
    ops.clear();
    const Ssd::Placed req =
        ssd.place(rec.op, rec.offset, rec.size, rec.arrival, ops);
    if (ops.size() > out.max_request_ops) {
      out.max_request_ops = ops.size();
      out.background_in_max = std::any_of(
          ops.begin(), ops.end(),
          [](const cache::PhysOp& o) { return o.background; });
    }
    const auto done = ssd.enqueue(req, ops);
    ++depth;
    result.makespan = std::max(result.makespan, done.drained);
    ++result.requests;
  }
  ssd.drain_completions(kNoTime, harvest);
  if (result.requests > 0) {
    result.avg_queue_depth_at_arrival =
        at_arrival_sum / static_cast<double>(result.requests);
    if (prev_event > first_arrival) {
      result.avg_queue_depth =
          depth_integral / static_cast<double>(prev_event - first_arrival);
    }
  }
  return out;
}

std::vector<std::uint8_t> device_bytes(const Ssd& ssd) {
  io::StateSink sink;
  ssd.save(sink);
  return sink.take();
}

void expect_same_result(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_queue_depth, b.avg_queue_depth);
  EXPECT_EQ(a.avg_queue_depth_at_arrival, b.avg_queue_depth_at_arrival);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.latency.read_count(), b.latency.read_count());
  EXPECT_EQ(a.latency.write_count(), b.latency.write_count());
  EXPECT_EQ(a.latency.avg_read_ms(), b.latency.avg_read_ms());
  EXPECT_EQ(a.latency.avg_write_ms(), b.latency.avg_write_ms());
  for (const double q : {0.5, 0.95, 0.99, 0.999}) {
    EXPECT_EQ(a.latency.read_quantile_ms(q), b.latency.read_quantile_ms(q));
    EXPECT_EQ(a.latency.write_quantile_ms(q), b.latency.write_quantile_ms(q));
  }
}

std::vector<trace::TraceRecord> ts0_records(const Ssd& ssd, double scale) {
  trace::SyntheticWorkload gen(trace::profile_by_name("ts0"),
                               ssd.logical_bytes(), scale);
  return trace::collect(gen);
}

TEST(PricePipeline, ReplayMatchesThePlainLoopForEveryScheme) {
  const SsdConfig cfg = SsdConfig::scaled(1024);
  for (const char* scheme : {"Baseline", "MGA", "IPU", "IPS"}) {
    // 0 replays the whole stream; the caps end mid-slot and mid-ring.
    for (const std::uint64_t cap :
         {std::uint64_t{0}, std::uint64_t{PlacedRing::kBatch + 3},
          std::uint64_t{5'000}}) {
      SCOPED_TRACE(std::string(scheme) + " cap=" + std::to_string(cap));
      Ssd walked(cfg, scheme);
      prefill(walked);
      Ssd plain(cfg, scheme);
      prefill(plain);
      std::vector<trace::TraceRecord> records = ts0_records(walked, 0.005);
      ASSERT_GT(records.size(), 5'000u);
      trace::VectorTraceSource src(records);
      const ReplayResult rw = Replayer(walked).replay(src, cap);
      if (cap != 0) records.resize(cap);
      const PlainReplay rp = plain_replay(plain, records);
      EXPECT_EQ(rw.requests, records.size());
      expect_same_result(rw, rp.result);
      EXPECT_TRUE(device_bytes(walked) == device_bytes(plain));
    }
  }
}

TEST(PricePipeline, RequestWhoseOpsOutgrowTheSlotBufferPricesLikeThePlainLoop) {
  // 16 MiB writes on a small prefilled device: one request places more ops
  // than a slot reserves for all of its requests, GC among them.
  for (const char* scheme : {"Baseline", "IPU"}) {
    SCOPED_TRACE(scheme);
    const SsdConfig cfg = SsdConfig::scaled(1024);
    Ssd walked(cfg, scheme);
    prefill(walked);
    Ssd plain(cfg, scheme);
    prefill(plain);
    std::vector<trace::TraceRecord> records = ts0_records(walked, 0.002);
    SimTime t = records.back().arrival;
    for (std::uint64_t i = 0; i < 6; ++i) {
      t += ms_to_ns(1.0);
      records.push_back(trace::TraceRecord{t, OpType::kWrite,
                                           i * (16u << 20), 16u << 20});
      t += ms_to_ns(1.0);
      records.push_back(
          trace::TraceRecord{t, OpType::kRead, i * (16u << 20), 1u << 20});
    }
    trace::VectorTraceSource src(records);
    const ReplayResult rw = Replayer(walked).replay(src);
    const PlainReplay rp = plain_replay(plain, records);
    ASSERT_GT(rp.max_request_ops, PlacedRing::kSlotOps);
    EXPECT_TRUE(rp.background_in_max);
    expect_same_result(rw, rp.result);
    EXPECT_TRUE(device_bytes(walked) == device_bytes(plain));
    walked.scheme().check_consistency();
  }
}

/// Throws from its third next_batch call, without writing that batch.
class FailingSource final : public trace::TraceSource {
 public:
  static constexpr int kFailCall = 3;
  bool next(trace::TraceRecord& out) override {
    out = trace::TraceRecord{us_to_ns(100.0) * (produced_ + 1), OpType::kWrite,
                             produced_ * 4 * kSubpageBytes, 4096};
    ++produced_;
    return true;
  }
  std::size_t next_batch(std::span<trace::TraceRecord> out) override {
    if (++calls_ == kFailCall) throw std::runtime_error("unreadable record");
    for (trace::TraceRecord& r : out) next(r);
    return out.size();
  }
  void reset() override { produced_ = 0; }

 private:
  int calls_ = 0;
  std::uint64_t produced_ = 0;
};

/// Throws on its first tick.
class ThrowingProgress final : public perf::ProgressSink {
 public:
  void begin(std::uint64_t) override {}
  void advance(std::uint64_t done) override {
    throw std::runtime_error("progress sink failed at " + std::to_string(done));
  }
};

// Placing-side failures, with and without lockstep: the walk prices every
// request placed before the failure, joins both workers and rethrows.
TEST(PricePipeline, PlacingSideFailuresArriveAfterEveryPlacedRequestIsPriced) {
  for (const bool lockstep : {false, true}) {
    SCOPED_TRACE(lockstep ? "lockstep" : "ring");
    {
      Ssd ssd(SsdConfig::scaled(1024), "IPU");
      FailingSource src;
      std::uint64_t priced = 0;
      try {
        walk_records(ssd, src, 0, lockstep, nullptr,
                     [&](const Ssd::Placed& req,
                         std::span<const cache::PhysOp> ops) {
                       ssd.price(req, ops);
                       ++priced;
                     });
        ADD_FAILURE() << "the source's exception did not reach the caller";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "unreadable record");
      }
      EXPECT_EQ(priced,
                (FailingSource::kFailCall - 1) * trace::DecodeAhead::kBatch);
    }
    {
      Ssd ssd(SsdConfig::scaled(1024), "Baseline");
      trace::SyntheticWorkload src(trace::profile_by_name("ts0"),
                                   ssd.logical_bytes(), 0.02);
      ASSERT_GT(src.expected_records(), 2 * (kProgressMask + 1));
      ThrowingProgress progress;
      std::uint64_t priced = 0;
      try {
        walk_records(ssd, src, 0, lockstep, &progress,
                     [&](const Ssd::Placed& req,
                         std::span<const cache::PhysOp> ops) {
                       ssd.price(req, ops);
                       ++priced;
                     });
        ADD_FAILURE() << "the sink's exception did not reach the caller";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "progress sink failed at 16384");
      }
      EXPECT_EQ(priced, kProgressMask + 1);
    }
  }
}

// A pricing-side failure stops the placer and reaches the caller; the
// pricer sees no request after the one that threw.
TEST(PricePipeline, PricingSideFailureStopsThePlacerAndReachesTheCaller) {
  for (const bool lockstep : {false, true}) {
    for (const std::uint64_t fail_at : {std::uint64_t{0}, std::uint64_t{700},
                                        std::uint64_t{20'000}}) {
      SCOPED_TRACE(std::string(lockstep ? "lockstep" : "ring") +
                   " fail_at=" + std::to_string(fail_at));
      Ssd ssd(SsdConfig::scaled(1024), "IPU");
      trace::SyntheticWorkload src(trace::profile_by_name("ts0"),
                                   ssd.logical_bytes(), 0.05);
      ASSERT_GT(src.expected_records(), fail_at + 10'000);
      std::uint64_t priced = 0;
      try {
        walk_records(ssd, src, 0, lockstep, nullptr,
                     [&](const Ssd::Placed& req,
                         std::span<const cache::PhysOp> ops) {
                       if (priced == fail_at) {
                         throw std::runtime_error("pricing failed");
                       }
                       ssd.price(req, ops);
                       ++priced;
                     });
        ADD_FAILURE() << "the pricer's exception did not reach the caller";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "pricing failed");
      }
      EXPECT_EQ(priced, fail_at);
    }
  }
}

// Lockstep: request i + 1 is placed only after request i is priced.
TEST(PricePipeline, LockstepPlacesNothingAheadOfThePricer) {
  Ssd ssd(SsdConfig::scaled(1024), "IPU");
  prefill(ssd);
  trace::SyntheticWorkload src(trace::profile_by_name("ts0"),
                               ssd.logical_bytes(), 0.002);
  const std::uint64_t expected = src.expected_records();
  std::uint64_t priced = 0;
  bool ok = true;
  walk_records(ssd, src, 0, true, nullptr,
               [&](const Ssd::Placed& req, std::span<const cache::PhysOp> ops) {
                 // One request per slot: its ops start the slot's buffer and
                 // end it, since nothing was placed after it.
                 ok = ok && req.ops_begin == 0 && req.ops_end == ops.size();
                 ssd.price(req, ops);
                 ++priced;
               });
  EXPECT_TRUE(ok);
  EXPECT_EQ(priced, expected);
}

}  // namespace
}  // namespace ppssd::sim
