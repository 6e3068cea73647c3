#include "trace/synthetic.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "trace/profiles.h"
#include "trace/trace_stats.h"

namespace ppssd::trace {
namespace {

constexpr std::uint64_t kLogicalBytes = 8ull << 30;  // 8 GiB

TEST(Synthetic, DeterministicForSameSeed) {
  const auto& profile = profile_by_name("ts0");
  SyntheticWorkload a(profile, kLogicalBytes, 0.01);
  SyntheticWorkload b(profile, kLogicalBytes, 0.01);
  TraceRecord ra, rb;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(a.next(ra));
    ASSERT_TRUE(b.next(rb));
    EXPECT_EQ(ra, rb);
  }
}

TEST(Synthetic, ResetReproducesStream) {
  const auto& profile = profile_by_name("wdev0");
  SyntheticWorkload w(profile, kLogicalBytes, 0.005);
  const auto first = collect(w);
  w.reset();
  const auto second = collect(w);
  EXPECT_EQ(first, second);
}

TEST(Synthetic, RespectsScale) {
  const auto& profile = profile_by_name("ts0");
  SyntheticWorkload w(profile, kLogicalBytes, 0.01);
  EXPECT_EQ(w.expected_records(),
            static_cast<std::uint64_t>(profile.requests * 0.01));
  EXPECT_EQ(collect(w).size(), w.expected_records());
}

TEST(Synthetic, ArrivalsMonotone) {
  const auto& profile = profile_by_name("usr0");
  SyntheticWorkload w(profile, kLogicalBytes, 0.005);
  TraceRecord rec;
  SimTime last = 0;
  while (w.next(rec)) {
    EXPECT_GE(rec.arrival, last);
    last = rec.arrival;
  }
}

TEST(Synthetic, OffsetsAlignedAndInFootprint) {
  const auto& profile = profile_by_name("lun1");
  SyntheticWorkload w(profile, kLogicalBytes, 0.01);
  const std::uint64_t footprint = static_cast<std::uint64_t>(
      kLogicalBytes * profile.footprint_fraction);
  TraceRecord rec;
  while (w.next(rec)) {
    EXPECT_EQ(rec.offset % kSubpageBytes, 0u);
    EXPECT_LE(rec.offset + rec.size, footprint + 256 * 1024);
    EXPECT_GT(rec.size, 0u);
    EXPECT_LE(rec.size, 256u * 1024u);  // 64-subpage cap
  }
}

TEST(Synthetic, HotObjectSizesAreStable) {
  // The same hot object is always written with the same size (update
  // semantics), across separate generator instances.
  const auto& profile = profile_by_name("ts0");
  SyntheticWorkload w(profile, kLogicalBytes, 0.05);
  std::unordered_map<std::uint64_t, std::uint32_t> sizes;
  TraceRecord rec;
  const std::uint64_t hot_span = w.hot_object_count() * 64 * 1024;
  while (w.next(rec)) {
    // Cold *reads* may roam into the hot region; only writes there are
    // object rewrites.
    if (rec.op == OpType::kWrite && rec.offset < hot_span &&
        rec.offset % (64 * 1024) == 0) {
      auto [it, fresh] = sizes.try_emplace(rec.offset, rec.size);
      if (!fresh) {
        EXPECT_EQ(it->second, rec.size) << "object " << rec.offset;
      }
    }
  }
  EXPECT_GT(sizes.size(), 10u);
}

/// Statistical calibration sweep across all six paper profiles.
class ProfileCalibration : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileCalibration, MatchesTable3Statistics) {
  const auto& profile = profile_by_name(GetParam());
  SyntheticWorkload w(profile, kLogicalBytes, 0.1);
  const TraceStats stats = analyze(w);

  EXPECT_NEAR(stats.write_ratio(), profile.write_ratio, 0.02)
      << "write ratio off for " << profile.name;
  EXPECT_NEAR(stats.mean_write_kb(), profile.mean_write_kb,
              profile.mean_write_kb * 0.15)
      << "mean write size off for " << profile.name;
}

TEST_P(ProfileCalibration, MatchesTable1Buckets) {
  const auto& profile = profile_by_name(GetParam());
  SyntheticWorkload w(profile, kLogicalBytes, 0.1);
  const TraceStats stats = analyze(w);
  if (stats.updates() < 1000) GTEST_SKIP() << "too few updates to bin";
  // Updates are dominated by hot objects whose sizes are drawn from the
  // Table 1 buckets; allow slack for the cold-overwrite contribution.
  EXPECT_NEAR(stats.update_frac_le_4k(), profile.write_sizes.le_4k, 0.12);
}

// The constructor's table of hot-object sizes is object_size_bytes() of
// every object, which is what each hot record used to compute itself.
TEST_P(ProfileCalibration, HotSizeTableMatchesObjectSizes) {
  const auto& profile = profile_by_name(GetParam());
  SyntheticWorkload w(profile, kLogicalBytes, 0.1);
  const std::span<const std::uint32_t> sizes = w.hot_object_sizes();
  ASSERT_EQ(sizes.size(), w.hot_object_count());
  for (std::uint64_t o = 0; o < sizes.size(); ++o) {
    ASSERT_EQ(sizes[o], w.object_size_bytes(o)) << "object " << o;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTraces, ProfileCalibration,
                         ::testing::Values("ts0", "wdev0", "lun1", "usr0",
                                           "lun2", "ads"));

TEST(Profiles, AllSixPresentInPaperOrder) {
  const auto& profiles = paper_profiles();
  ASSERT_EQ(profiles.size(), 6u);
  const char* expected[] = {"ts0", "wdev0", "lun1", "usr0", "lun2", "ads"};
  double prev_ratio = 1.0;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(profiles[i].name, expected[i]);
    // Table 3 is ordered by descending write ratio.
    EXPECT_LE(profiles[i].write_ratio, prev_ratio);
    prev_ratio = profiles[i].write_ratio;
  }
}

TEST(Profiles, RequestCountsMatchTable3) {
  EXPECT_EQ(profile_by_name("ts0").requests, 1'801'734u);
  EXPECT_EQ(profile_by_name("wdev0").requests, 1'143'261u);
  EXPECT_EQ(profile_by_name("lun1").requests, 1'073'405u);
  EXPECT_EQ(profile_by_name("usr0").requests, 2'237'889u);
  EXPECT_EQ(profile_by_name("lun2").requests, 1'758'887u);
  EXPECT_EQ(profile_by_name("ads").requests, 1'532'120u);
}

}  // namespace
}  // namespace ppssd::trace
