// Twin-device warm-start equivalence: serializing a warmed device and
// restoring it into a fresh one must be *behavior-preserving* — the
// restored twin replays the identical measured workload to bit-identical
// latencies, metrics, GC decisions, and final device state. This is the
// invariant the warm-start checkpoint cache (DESIGN.md §14) rests on,
// exercised for every scheme and both GC-interleave settings.
#include <cstring>
#include <memory>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/state_io.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd {
namespace {

struct TwinCase {
  const char* scheme;
  std::uint32_t interleave;
};

// gtest would print the struct's raw bytes, pointer included, into the
// test names; print the values instead so the names are stable.
void PrintTo(const TwinCase& tc, std::ostream* os) {
  *os << "{\"" << tc.scheme << "\", " << tc.interleave << "}";
}

class WarmstartTwin : public ::testing::TestWithParam<TwinCase> {};

SsdConfig twin_config(std::uint32_t interleave) {
  SsdConfig cfg = SsdConfig::scaled(2048);
  cfg.cache.gc_interleave_ops = interleave;
  return cfg;
}

/// Replay phase 1 (the "warm-up") on a device and land it on the same
/// quiescent boundary run_experiment checkpoints at.
void warm_device(sim::Ssd& ssd) {
  trace::TraceProfile warm = trace::profile_by_name("ts0");
  warm.seed += 7777;
  trace::SyntheticWorkload workload(warm, ssd.logical_bytes(), 0.02);
  sim::Replayer replayer(ssd);
  replayer.replay(workload);
  ssd.scheme().reset_metrics();
  ssd.reset_timing();
}

/// Replay the measured phase and return the replay result.
sim::ReplayResult measure_device(sim::Ssd& ssd) {
  trace::SyntheticWorkload workload(trace::profile_by_name("ts0"),
                                    ssd.logical_bytes(), 0.02);
  sim::Replayer replayer(ssd);
  return replayer.replay(workload);
}

std::vector<std::uint8_t> snapshot(const sim::Ssd& ssd) {
  io::StateSink sink;
  ssd.save(sink);
  return sink.take();
}

TEST_P(WarmstartTwin, RestoredDeviceIsBitIdentical) {
  const TwinCase& tc = GetParam();
  const SsdConfig cfg = twin_config(tc.interleave);

  // Cold device: warm up, checkpoint at the quiescent boundary.
  sim::Ssd cold(cfg, tc.scheme);
  warm_device(cold);
  const std::vector<std::uint8_t> checkpoint = snapshot(cold);

  // Twin: fresh device restored from the checkpoint.
  sim::Ssd warm(cfg, tc.scheme);
  {
    io::StateSource src(checkpoint);
    warm.restore(src);
    EXPECT_TRUE(src.exhausted());
  }

  // The restored state must round-trip byte-for-byte and satisfy every
  // internal invariant a cold-built device does.
  EXPECT_EQ(snapshot(warm), checkpoint);
  warm.scheme().check_consistency();
  warm.scheme().blocks().check_victim_index();

  // Identical measured replays: host-visible outcomes...
  const sim::ReplayResult rc = measure_device(cold);
  const sim::ReplayResult rw = measure_device(warm);
  ASSERT_GT(rc.requests, 0u);
  EXPECT_EQ(rc.requests, rw.requests);
  EXPECT_EQ(rc.makespan, rw.makespan);
  EXPECT_EQ(rc.max_queue_depth, rw.max_queue_depth);
  EXPECT_EQ(rc.latency.read_count(), rw.latency.read_count());
  EXPECT_EQ(rc.latency.write_count(), rw.latency.write_count());
  EXPECT_EQ(rc.latency.avg_read_ms(), rw.latency.avg_read_ms());
  EXPECT_EQ(rc.latency.avg_write_ms(), rw.latency.avg_write_ms());
  EXPECT_EQ(rc.latency.read_p99_ms(), rw.latency.read_p99_ms());
  EXPECT_EQ(rc.latency.write_p99_ms(), rw.latency.write_p99_ms());

  // ...identical policy decisions (GC counts, evictions, array ops)...
  const cache::SchemeMetrics& mc = cold.scheme().metrics();
  const cache::SchemeMetrics& mw = warm.scheme().metrics();
  EXPECT_EQ(mc.slc_gc_count, mw.slc_gc_count);
  EXPECT_EQ(mc.mlc_gc_count, mw.mlc_gc_count);
  EXPECT_EQ(mc.evicted_subpages, mw.evicted_subpages);
  EXPECT_EQ(mc.slc_subpages_written, mw.slc_subpages_written);
  EXPECT_EQ(mc.mlc_subpages_written, mw.mlc_subpages_written);
  const nand::ArrayCounters cc = cold.scheme().array().counters();
  const nand::ArrayCounters cw = warm.scheme().array().counters();
  EXPECT_EQ(std::memcmp(&cc, &cw, sizeof(cc)), 0);

  // ...and identical final device state, down to the last byte.
  cold.scheme().reset_metrics();
  cold.reset_timing();
  warm.scheme().reset_metrics();
  warm.reset_timing();
  EXPECT_EQ(snapshot(cold), snapshot(warm));
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndInterleave, WarmstartTwin,
    ::testing::Values(TwinCase{"Baseline", 0}, TwinCase{"Baseline", 1},
                      TwinCase{"MGA", 0}, TwinCase{"MGA", 1},
                      TwinCase{"IPU", 0}, TwinCase{"IPU", 1},
                      TwinCase{"IPS", 0}, TwinCase{"IPS", 1}),
    [](const ::testing::TestParamInfo<TwinCase>& info) {
      return std::string(info.param.scheme) +
             (info.param.interleave ? "_interleaved" : "_inline");
    });

}  // namespace
}  // namespace ppssd
