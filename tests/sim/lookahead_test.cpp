// Request lookahead (DESIGN.md §10): the replay walker's hints change
// nothing. A plain per-record loop written here (drain, then enqueue)
// must leave the same ReplayResult and the same device bytes as
// Replayer::replay, and the hints' address edge cases must resolve in
// range and leave the device untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/state_io.h"
#include "common/units.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::sim {
namespace {

/// A device at 2,048 blocks whose MLC region is pre-filled the way
/// run_experiment's warm-up does, so most LSNs are mapped and the row
/// hints have slots to name.
void prefill(Ssd& ssd) {
  const auto& geom = ssd.scheme().array().geometry();
  ssd.scheme().prefill_mlc(
      geom.logical_subpages(),
      ssd.scheme().blocks().gc_threshold_blocks(CellMode::kMlc) + 3);
}

/// Replayer::replay's accounting without the walker: each record drains
/// the completions before its arrival and is enqueued, one at a time.
ReplayResult plain_replay(Ssd& ssd, trace::TraceSource& src) {
  ReplayResult result;
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
  trace::TraceRecord rec;
  while (src.next(rec)) {
    ssd.drain_completions(rec.arrival, harvest);
    if (rec.arrival > prev_event) {
      depth_integral += static_cast<double>(depth) *
                        static_cast<double>(rec.arrival - prev_event);
      prev_event = rec.arrival;
    }
    at_arrival_sum += static_cast<double>(depth);
    result.max_queue_depth = std::max(result.max_queue_depth, depth);
    if (first_arrival == kNoTime) first_arrival = rec.arrival;
    const auto done = ssd.enqueue(rec.op, rec.offset, rec.size, rec.arrival);
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
  return result;
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

// std::string parameters, not const char*: gtest prints a char pointer
// inside a tuple as its address, which would put a per-run address into
// the discovered test names.
class LookaheadEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(LookaheadEquivalence, WalkerMatchesPlainLoop) {
  const auto [scheme, trace_name] = GetParam();
  const SsdConfig cfg = SsdConfig::scaled(2048);
  const trace::TraceProfile& profile = trace::profile_by_name(trace_name);

  Ssd walked(cfg, scheme);
  prefill(walked);
  trace::SyntheticWorkload a(profile, walked.logical_bytes(), 0.01);
  const ReplayResult ra = Replayer(walked).replay(a);

  Ssd plain(cfg, scheme);
  prefill(plain);
  trace::SyntheticWorkload b(profile, plain.logical_bytes(), 0.01);
  const ReplayResult rb = plain_replay(plain, b);

  ASSERT_GT(ra.requests, 10'000u);
  expect_same_result(ra, rb);
  EXPECT_TRUE(device_bytes(walked) == device_bytes(plain))
      << "device state differs after the walked replay";
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndTraces, LookaheadEquivalence,
    ::testing::Combine(::testing::Values(std::string("Baseline"),
                                         std::string("MGA"), std::string("IPU"),
                                         std::string("IPS")),
                       ::testing::Values(std::string("ts0"),
                                         std::string("ads"))),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(Lookahead, ShortAndEmptySourcesReplayLikeThePlainLoop) {
  // Under one batch the decode worker publishes a single short batch (or
  // none) before the end of the stream.
  const SsdConfig cfg = SsdConfig::scaled(2048);
  const trace::TraceProfile& profile = trace::profile_by_name("ts0");
  for (const char* scheme : {"Baseline", "IPU"}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                kMapAhead + 1, trace::DecodeAhead::kBatch - 1}) {
      SCOPED_TRACE(std::string(scheme) + " n=" + std::to_string(n));
      Ssd walked(cfg, scheme);
      prefill(walked);
      Ssd plain(cfg, scheme);
      prefill(plain);
      trace::SyntheticWorkload gen(profile, walked.logical_bytes(), 0.01);
      std::vector<trace::TraceRecord> records(n);
      ASSERT_EQ(gen.next_batch(records), n);
      trace::VectorTraceSource a(records);
      trace::VectorTraceSource b(records);
      const ReplayResult ra = Replayer(walked).replay(a);
      ASSERT_EQ(ra.requests, n);
      expect_same_result(ra, plain_replay(plain, b));
      EXPECT_TRUE(device_bytes(walked) == device_bytes(plain));
    }
  }
}

TEST(Lookahead, WalkerVisitsEveryRecordOnceInOrder) {
  Ssd ssd(SsdConfig::scaled(1024), "IPU");
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kRowsAhead - 1, kRowsAhead,
        kRowsAhead + 1, kMapAhead - 1, kMapAhead, kMapAhead + 1,
        2 * kMapAhead + 3, trace::DecodeAhead::kBatch}) {
    std::vector<trace::TraceRecord> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].offset = i * 7 * kSubpageBytes;
      batch[i].size = 4096;
    }
    std::vector<std::uint64_t> seen;
    for_each_ahead(ssd, batch, [&](const trace::TraceRecord& rec) {
      seen.push_back(rec.offset / (7 * kSubpageBytes));
    });
    ASSERT_EQ(seen.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(Lookahead, ResolveWrapsAndClampsAtTheLogicalEnd) {
  const Ssd ssd(SsdConfig::scaled(1024), "IPU");
  const std::uint64_t total =
      ssd.scheme().array().geometry().logical_subpages();
  const std::uint64_t bytes = ssd.logical_bytes();

  // The last LSN.
  Ssd::LsnRange r = ssd.resolve((total - 1) * kSubpageBytes, 4096);
  EXPECT_EQ(r.lsn, total - 1);
  EXPECT_EQ(r.count, 1u);
  // A request that ends exactly at the last subpage.
  r = ssd.resolve((total - 4) * kSubpageBytes, 4 * 4096);
  EXPECT_EQ(r.lsn, total - 4);
  EXPECT_EQ(r.count, 4u);
  // One that would run past it is clamped at the top.
  r = ssd.resolve((total - 2) * kSubpageBytes, 4 * 4096);
  EXPECT_EQ(r.lsn, total - 2);
  EXPECT_EQ(r.count, 2u);
  // Offsets past the logical space wrap; an unaligned offset widens the
  // range by the subpage it starts in.
  r = ssd.resolve(bytes + 2 * kSubpageBytes, 4096);
  EXPECT_EQ(r.lsn, 2u);
  EXPECT_EQ(r.count, 1u);
  r = ssd.resolve(3 * bytes + 5 * kSubpageBytes + 100, 4096);
  EXPECT_EQ(r.lsn, 5u);
  EXPECT_EQ(r.count, 2u);
}

/// Records at the address edges: the last LSN, a request ending at the
/// last subpage, offsets that wrap past the logical space, and reads of
/// LSNs nothing has written.
std::vector<trace::TraceRecord> edge_records(std::uint64_t logical_bytes) {
  const std::uint64_t last = logical_bytes - kSubpageBytes;
  std::vector<trace::TraceRecord> out;
  SimTime t = 0;
  const auto add = [&](OpType op, std::uint64_t offset, std::uint32_t size) {
    t += us_to_ns(200.0);
    out.push_back(trace::TraceRecord{t, op, offset, size});
  };
  for (int round = 0; round < 40; ++round) {
    const auto r = static_cast<std::uint64_t>(round);
    add(OpType::kRead, last, 4096);                          // unmapped first
    add(OpType::kWrite, last, 4096);                         // the last LSN
    add(OpType::kWrite, logical_bytes - 16384, 16384);       // ends at the top
    add(OpType::kRead, last - 8192, 65536);                  // clamped read
    add(OpType::kWrite, logical_bytes * (2 + r) + r * 8192, 8192);  // wraps
    add(OpType::kWrite, logical_bytes + 4096 * r + 1000, 12000);    // unaligned
    add(OpType::kRead, (500 + r) * 65536, 16384);            // never written
    add(OpType::kRead, logical_bytes * 3 + 4096 * r, 8192);  // wrapped read
  }
  return out;
}

TEST(Lookahead, EdgeRecordsReplayLikeThePlainLoop) {
  for (const char* scheme : {"Baseline", "MGA", "IPU", "IPS"}) {
    SCOPED_TRACE(scheme);
    const SsdConfig cfg = SsdConfig::scaled(1024);
    Ssd walked(cfg, scheme);
    Ssd plain(cfg, scheme);
    trace::VectorTraceSource a(edge_records(walked.logical_bytes()));
    trace::VectorTraceSource b(edge_records(plain.logical_bytes()));
    expect_same_result(Replayer(walked).replay(a), plain_replay(plain, b));
    EXPECT_TRUE(device_bytes(walked) == device_bytes(plain));
    walked.scheme().check_consistency();
  }
}

TEST(Lookahead, HintsLeaveTheDeviceUntouched) {
  Ssd ssd(SsdConfig::scaled(1024), "IPU");
  const std::uint64_t total =
      ssd.scheme().array().geometry().logical_subpages();
  // Map a few LSNs, among them the last one, and leave the rest unmapped.
  ssd.submit(OpType::kWrite, (total - 1) * kSubpageBytes, 4096, 1);
  ssd.submit(OpType::kWrite, 0, 16384, 2);
  ssd.drain_completions(kNoTime, [](const auto&) {});
  const std::vector<std::uint8_t> before = device_bytes(ssd);
  const cache::Scheme& scheme = ssd.scheme();
  for (const Lsn lsn : {Lsn{0}, Lsn{3}, Lsn{4}, total / 2, total - 2,
                        total - 1}) {
    scheme.device_map().prefetch(lsn);
    scheme.prefetch_rows(lsn);
  }
  const std::vector<trace::TraceRecord> batch =
      edge_records(ssd.logical_bytes());
  std::size_t visited = 0;
  for_each_ahead(ssd, batch, [&](const trace::TraceRecord&) { ++visited; });
  EXPECT_EQ(visited, batch.size());
  EXPECT_TRUE(device_bytes(ssd) == before);
}

}  // namespace
}  // namespace ppssd::sim
