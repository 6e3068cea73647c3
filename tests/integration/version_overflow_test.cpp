// The version overflow path end to end. A device-map entry keeps an LSN's
// version in the bits above its slot code; a version at or above the
// field's cap keeps its full value in the map's overflow table. Here a
// hot set of LSNs is written past the cap on a prefilled device, and each
// time GC relocates one of them — an SLC GC move, an eviction (staged,
// then flushed), an MLC GC pass, the IPS in-place switch — its version_of
// must still be exact. So must every written LSN's after an Ssd
// save/restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/state_io.h"
#include "common/units.h"
#include "sim/ssd.h"

namespace ppssd {
namespace {

/// 8,192 blocks: 13 block, 7 page and 2 subpage bits leave 10 version
/// bits, a cap of 1,022. A 1% SLC share keeps the cache small, so SLC GC
/// runs often.
SsdConfig overflow_config() {
  SsdConfig cfg = SsdConfig::scaled(8192);
  cfg.cache.slc_ratio = 0.01;
  return cfg;
}

/// How GC relocations moved the saturated LSNs, by source and
/// destination region.
struct Moves {
  int slc_to_slc = 0;  // SLC GC move
  int evicted = 0;     // SLC -> dense, programmed
  int switched = 0;    // SLC -> dense in place (IPS reprogram)
  int mlc_to_mlc = 0;  // MLC GC pass
};

class VersionOverflow : public ::testing::TestWithParam<std::string> {};

TEST_P(VersionOverflow, SaturatedVersionsSurviveEveryRelocation) {
  const SsdConfig cfg = overflow_config();
  sim::Ssd ssd(cfg, GetParam());
  cache::Scheme& scheme = ssd.scheme();
  const ftl::DeviceMap& map = scheme.device_map();
  const nand::FlashArray& array = scheme.array();
  const std::uint32_t cap = map.version_cap();
  ASSERT_EQ(cap, 1022u);
  const std::uint64_t prefilled = scheme.prefill_mlc(
      array.geometry().logical_subpages(),
      scheme.blocks().gc_threshold_blocks(CellMode::kMlc) + 3);

  // Expected version of every LSN written after the prefill (a prefilled
  // LSN starts at version 1).
  std::unordered_map<Lsn, std::uint32_t> shadow;
  const auto expected = [&](Lsn lsn) -> std::uint32_t {
    const auto it = shadow.find(lsn);
    if (it != shadow.end()) return it->second;
    return lsn < prefilled ? 1 : 0;
  };
  SimTime now = 0;
  const auto write = [&](Lsn lsn, std::uint32_t count) {
    now += us_to_ns(200.0);
    ssd.submit(OpType::kWrite, lsn * kSubpageBytes, count * kSubpageBytes,
               now);
    for (Lsn l = lsn; l < lsn + count; ++l) shadow[l] = expected(l) + 1;
  };

  // The hot set, one LSN per page, all inside the cold traffic's range so
  // the dense blocks they are evicted to also take overwrites (and so MLC
  // GC picks them).
  constexpr Lsn kColdRange = 60'000;
  std::vector<Lsn> hot;
  for (Lsn lsn = 4; lsn < kColdRange; lsn += 3'752) hot.push_back(lsn);
  std::vector<PhysicalAddress> where(hot.size());
  Moves moves;
  // A hot LSN that changed slots in a write to another LSN was relocated
  // by GC: classify the move and check its version.
  const auto watch = [&] {
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const PhysicalAddress to = map.lookup(hot[i]);
      const PhysicalAddress from = where[i];
      if (to == from) continue;
      where[i] = to;
      ASSERT_EQ(scheme.version_of(hot[i]), expected(hot[i]))
          << "lsn " << hot[i];
      if (expected(hot[i]) < cap) continue;
      const bool from_slc = array.geometry().is_slc_block(from.block);
      const bool to_slc = array.geometry().is_slc_block(to.block);
      ASSERT_TRUE(from_slc || !to_slc) << "GC moved dense data into SLC";
      if (from_slc && to_slc) {
        ++moves.slc_to_slc;
      } else if (from_slc) {
        ++(array.page(to.block, to.page).reprogrammed() ? moves.switched
                                                        : moves.evicted);
      } else {
        ++moves.mlc_to_mlc;
      }
    }
  };
  const auto hot_write = [&](std::size_t i) {
    write(hot[i], 1);
    where[i] = map.lookup(hot[i]);
    watch();
  };
  Rng rng(7);
  const auto cold_write = [&] {
    const Lsn lsn = rng.next_below(kColdRange);
    if (std::find(hot.begin(), hot.end(), lsn) != hot.end()) return;
    write(lsn, 1);
    watch();
  };

  // Saturate: every hot LSN goes past the cap, among cold writes that
  // keep SLC GC running.
  for (std::uint32_t round = 0; round < cap + 40; ++round) {
    for (std::size_t i = 0; i < hot.size(); ++i) hot_write(i);
    for (int k = 0; k < 12; ++k) cold_write();
  }
  for (const Lsn lsn : hot) ASSERT_EQ(scheme.version_of(lsn), cap + 41);
  EXPECT_GE(map.overflow_count(), hot.size());
  // Half the hot set stays hot, so its blocks keep filling and GC keeps
  // moving the other half, which sinks level by level out of the cache.
  for (std::uint32_t round = 0; round < 2 * cap; ++round) {
    for (std::size_t i = 0; i < hot.size() / 2; ++i) hot_write(i);
    for (int k = 0; k < 12; ++k) cold_write();
  }
  // Cool down: cold writes only, until MLC GC has moved saturated LSNs.
  for (int k = 0; k < 60'000; ++k) cold_write();
  scheme.check_consistency();

  EXPECT_GT(moves.mlc_to_mlc, 0);
  if (GetParam() == "IPS") {
    EXPECT_GT(moves.switched, 0);
  } else {
    EXPECT_GT(moves.slc_to_slc, 0);
    EXPECT_GT(moves.evicted, 0);
  }
  for (const auto& [lsn, version] : shadow) {
    ASSERT_EQ(scheme.version_of(lsn), version) << "lsn " << lsn;
  }

  // A save/restore keeps every version, the overflow table included.
  ssd.reset_timing();
  io::StateSink sink;
  ssd.save(sink);
  sim::Ssd twin(cfg, GetParam());
  io::StateSource src(sink.buffer());
  twin.restore(src);
  EXPECT_TRUE(src.exhausted());
  twin.scheme().check_consistency();
  EXPECT_EQ(twin.scheme().device_map().overflow_count(),
            map.overflow_count());
  for (const auto& [lsn, version] : shadow) {
    ASSERT_EQ(twin.scheme().version_of(lsn), version) << "lsn " << lsn;
  }
  twin.submit(OpType::kWrite, hot[0] * kSubpageBytes, kSubpageBytes, 0);
  EXPECT_EQ(twin.scheme().version_of(hot[0]), expected(hot[0]) + 1);
  twin.scheme().check_consistency();
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, VersionOverflow, ::testing::Values("IPU", "IPS"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace ppssd
