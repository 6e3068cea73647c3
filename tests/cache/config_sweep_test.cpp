// Cross-configuration property sweep: every scheme must uphold the core
// invariants under varied geometry, partial-program limits, GC
// thresholds, and cell-mode ratios — not just the paper's Table 2 point.
#include <gtest/gtest.h>

#include <string_view>
#include <tuple>

#include "cache/scheme.h"
#include "common/rng.h"
#include "common/units.h"

namespace ppssd::cache {
namespace {

constexpr const char* kSweepSchemes[] = {"Baseline", "MGA", "IPU"};

struct SweepPoint {
  std::uint32_t max_partial_programs;
  double slc_ratio;
  double gc_threshold;
};

class ConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static SweepPoint point(int idx) {
    static const SweepPoint points[] = {
        {4, 0.05, 0.05},  // paper settings
        {2, 0.05, 0.05},  // tight partial-program budget
        {8, 0.05, 0.05},  // generous budget
        {4, 0.10, 0.05},  // double-size cache
        {4, 0.05, 0.15},  // aggressive GC threshold
    };
    return points[idx];
  }
};

TEST_P(ConfigSweep, MixedWorkloadStaysConsistent) {
  const auto [scheme_idx, point_idx] = GetParam();
  const SweepPoint p = point(point_idx);

  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = p.max_partial_programs;
  cfg.cache.slc_ratio = p.slc_ratio;
  cfg.cache.gc_threshold = p.gc_threshold;
  cfg.cache.gc_interleave_ops = 0;
  ASSERT_TRUE(cfg.validate().empty()) << cfg.validate();

  auto scheme = make_scheme(kSweepSchemes[scheme_idx], cfg);
  Rng rng(500 + scheme_idx * 7 + point_idx);
  std::vector<PhysOp> ops;
  SimTime now = 0;

  // Hot set + cold stream, enough volume to force several GC rounds.
  for (int iter = 0; iter < 25'000; ++iter) {
    now += us_to_ns(100.0);
    ops.clear();
    if (rng.chance(0.5)) {
      const Lsn hot = rng.next_below(512) * 4;
      scheme->host_write(hot, 1 + rng.next_below(2), now, ops);
    } else {
      const Lsn cold = 10'000 + rng.next_below(200'000);
      scheme->host_write(cold, 1 + rng.next_below(4), now, ops);
    }
    if (iter % 10 == 0) {
      ops.clear();
      scheme->host_read(rng.next_below(1000) * 4, 2, now, ops);
    }
  }
  scheme->check_consistency();

  // The partial-program limit holds at every configured value.
  const auto& geom = scheme->array().geometry();
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const auto& blk = scheme->array().block(b);
    for (std::uint32_t pg = 0; pg < blk.write_frontier(); ++pg) {
      ASSERT_LE(scheme->array().page(b, static_cast<PageId>(pg)).program_ops(),
                p.max_partial_programs);
    }
  }

  // Work happened: the cache took writes and (at 5% ratios) GC'd.
  EXPECT_GT(scheme->metrics().slc_subpages_written, 0u);
  if (p.slc_ratio <= 0.05) {
    EXPECT_GT(scheme->metrics().slc_gc_count, 0u);
  }
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  return std::string(kSweepSchemes[std::get<0>(info.param)]) + "_cfg" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    SchemesTimesConfigs, ConfigSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4)),
    sweep_name);

TEST(ConfigSweepEdge, SinglePartialProgramDegeneratesGracefully) {
  // max_partial_programs = 1 forbids ALL partial programming: MGA loses
  // aggregation, IPU loses intra-page updates — both must still work.
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = 1;
  cfg.cache.gc_interleave_ops = 0;
  for (const char* name : {"Baseline", "MGA", "IPU"}) {
    auto scheme = make_scheme(name, cfg);
    std::vector<PhysOp> ops;
    SimTime now = 0;
    for (Lsn lsn = 0; lsn < 4000; lsn += 2) {
      ops.clear();
      scheme->host_write(lsn, 2, now += ms_to_ns(0.5), ops);
      ops.clear();
      scheme->host_write(lsn, 2, now += ms_to_ns(0.5), ops);  // update
    }
    scheme->check_consistency();
    EXPECT_EQ(scheme->array().counters().partial_program_ops, 0u) << name;
    if (std::string_view(name) == "IPU") {
      EXPECT_EQ(scheme->metrics().intra_page_updates, 0u);
    }
  }
}

TEST(ConfigSweepEdge, EightSubpagePages) {
  // 32 KiB pages with 8 subpages (kMaxSubpagesPerPage bound).
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.geometry.page_bytes = 32 * kKiB;
  cfg.cache.gc_interleave_ops = 0;
  ASSERT_TRUE(cfg.validate().empty()) << cfg.validate();
  auto scheme = make_scheme("IPU", cfg);
  std::vector<PhysOp> ops;
  SimTime now = 0;
  // Non-overlapping extents (stride 8 >= max size 4).
  for (Lsn lsn = 0; lsn < 20'000; lsn += 8) {
    ops.clear();
    scheme->host_write(lsn, 1 + (lsn / 8) % 4, now += ms_to_ns(0.3), ops);
  }
  // Updates against 8-slot pages: plenty of reserved room for in-place.
  for (Lsn lsn = 0; lsn < 2'000; lsn += 8) {
    ops.clear();
    scheme->host_write(lsn, 1 + (lsn / 8) % 4, now += ms_to_ns(0.3), ops);
  }
  scheme->check_consistency();
  EXPECT_GT(scheme->metrics().intra_page_updates, 0u);
}

}  // namespace
}  // namespace ppssd::cache
