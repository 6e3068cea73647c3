// Randomized property testing: drive every scheme with adversarial
// random workloads and verify the DESIGN.md §5 invariants plus full
// read-your-writes data integrity against a shadow model.
#include <gtest/gtest.h>

#include <unordered_map>

#include "cache/registry.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/ssd.h"

namespace ppssd {
namespace {

struct Shadow {
  // lsn -> expected version.
  std::unordered_map<Lsn, std::uint32_t> versions;
};

struct FuzzParams {
  const char* kind;
  std::uint64_t seed;
  std::uint64_t footprint_subpages;  // address locality knob
  double write_ratio;
};

/// Drive `scheme` (with `options`) through a random workload under GC
/// interleave `variant` (0, 1 or 2) and check every invariant.
void fuzz_scheme(const char* scheme, const cache::SchemeOptions& options,
                 int variant, std::uint64_t seed) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = static_cast<std::uint32_t>(variant);
  sim::Ssd ssd(cfg, cache::make_scheme(scheme, cfg, options));

  // Tight footprint for variant 0 (heavy update/GC churn), wide for
  // others (heavy cold flow).
  const std::uint64_t footprint =
      variant == 0 ? 20'000 : ssd.scheme()
                                      .array()
                                      .geometry()
                                      .logical_subpages() /
                                  2;
  Rng rng(seed);
  Shadow shadow;
  SimTime now = 0;

  for (int iter = 0; iter < 12'000; ++iter) {
    now += static_cast<SimTime>(rng.exponential(us_to_ns(150.0)));
    const Lsn lsn = rng.next_below(footprint);
    const auto count =
        static_cast<std::uint32_t>(1 + rng.next_below(6));  // up to 24 KiB
    if (rng.chance(0.7)) {
      ssd.submit(OpType::kWrite, lsn * kSubpageBytes, count * kSubpageBytes,
                 now);
      for (std::uint32_t i = 0; i < count; ++i) {
        ++shadow.versions[lsn + i];
      }
    } else {
      ssd.submit(OpType::kRead, lsn * kSubpageBytes, count * kSubpageBytes,
                 now);
    }

    if (iter % 4000 == 3999) {
      ssd.scheme().check_consistency();
    }
  }
  ssd.drain_background(now);
  ssd.scheme().check_consistency();

  // Read-your-writes: every written subpage is mapped, and its mapped
  // slot stores the expected version.
  for (const auto& [lsn, version] : shadow.versions) {
    EXPECT_TRUE(ssd.scheme().device_map().mapped(lsn)) << "lsn " << lsn;
    EXPECT_EQ(ssd.scheme().version_of(lsn), version) << "lsn " << lsn;
  }

  // Per-page partial-program limit held everywhere.
  const auto& geom = ssd.scheme().array().geometry();
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const auto& arr = ssd.scheme().array();
    for (std::uint32_t p = 0; p < arr.block(b).write_frontier(); ++p) {
      EXPECT_LE(arr.page(b, static_cast<PageId>(p)).program_ops(),
                cfg.cache.max_partial_programs);
    }
  }
}

class SchemeFuzz
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchemeFuzz, RandomWorkloadKeepsAllInvariants) {
  const auto [scheme_idx, variant] = GetParam();
  static constexpr const char* kSchemes[] = {"Baseline", "MGA", "IPU", "IPS"};
  fuzz_scheme(kSchemes[scheme_idx], {}, variant,
              1000 + scheme_idx * 10 + static_cast<std::uint64_t>(variant));
}

std::string fuzz_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static constexpr const char* kNames[] = {"Baseline", "MGA", "IPU", "IPS"};
  return std::string(kNames[std::get<0>(info.param)]) + "_interleave" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndGcModes, SchemeFuzz,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // registry order
                       ::testing::Values(0, 1, 2)),    // gc interleave
    fuzz_name);

// The option sets bench/ablations and the IPS tests run, each one option
// away from its scheme's defaults: every placement and relocation path
// (greedy SLC GC, one level, no in-place update, combined cold pages,
// read-migrate IPS promotion) under each GC interleave.
struct OptionSet {
  const char* name;
  const char* scheme;
  const char* key;
  const char* value;
};
constexpr OptionSet kOptionSets[] = {
    {"IPU_isr0", "IPU", "isr", "0"}, {"IPU_lvl0", "IPU", "lvl", "0"},
    {"IPU_ipp0", "IPU", "ipp", "0"}, {"IPU_cmb1", "IPU", "cmb", "1"},
    {"IPS_rpg0", "IPS", "rpg", "0"},
};

class SchemeOptionFuzz
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SchemeOptionFuzz, RandomWorkloadKeepsAllInvariants) {
  const auto [set_idx, variant] = GetParam();
  const OptionSet& set = kOptionSets[set_idx];
  cache::SchemeOptions options;
  options.set(set.key, set.value);
  fuzz_scheme(set.scheme, options, variant,
              2000 + set_idx * 10 + static_cast<std::uint64_t>(variant));
}

INSTANTIATE_TEST_SUITE_P(
    OptionSetsAndGcModes, SchemeOptionFuzz,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(0, 1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kOptionSets[std::get<0>(info.param)].name) +
             "_interleave" + std::to_string(std::get<1>(info.param));
    });

TEST(Invariants, SequentialOverwriteStress) {
  // Repeated sequential overwrite of one region: maximal update pressure.
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 0;
  sim::Ssd ssd(cfg, "IPU");
  SimTime now = 0;
  for (int round = 0; round < 30; ++round) {
    for (Lsn lsn = 0; lsn < 4096; lsn += 4) {
      ssd.submit(OpType::kWrite, lsn * kSubpageBytes, 4 * kSubpageBytes,
                 now += ms_to_ns(0.4));
    }
  }
  ssd.scheme().check_consistency();
  for (Lsn lsn = 0; lsn < 4096; ++lsn) {
    EXPECT_EQ(ssd.scheme().version_of(lsn), 30u);
  }
}

TEST(Invariants, WearAccumulatesOnlyThroughErase) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 0;
  sim::Ssd ssd(cfg, "Baseline");
  SimTime now = 0;
  for (Lsn lsn = 0; lsn < 60'000; lsn += 2) {
    ssd.submit(OpType::kWrite, lsn * kSubpageBytes, 2 * kSubpageBytes,
               now += ms_to_ns(0.2));
  }
  const auto& geom = ssd.scheme().array().geometry();
  std::uint64_t total_block_erases = 0;
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    total_block_erases += ssd.scheme().array().block(b).erase_count();
  }
  const auto& c = ssd.scheme().array().counters();
  EXPECT_EQ(total_block_erases, c.slc_erases + c.mlc_erases);
  EXPECT_GT(c.slc_erases, 0u);
}

TEST(Invariants, MixedSchemesAgreeOnStoredData) {
  // The same workload through every scheme must produce identical
  // logical contents (versions), whatever the physical layout.
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 1;
  std::vector<std::unique_ptr<sim::Ssd>> devices;
  for (const auto kind : {"Baseline", "MGA", "IPU", "IPS"}) {
    devices.push_back(std::make_unique<sim::Ssd>(cfg, kind));
  }
  Rng rng(77);
  SimTime now = 0;
  for (int iter = 0; iter < 8000; ++iter) {
    now += us_to_ns(200.0);
    const Lsn lsn = rng.next_below(30'000);
    const auto count = static_cast<std::uint32_t>(1 + rng.next_below(4));
    for (auto& dev : devices) {
      dev->submit(OpType::kWrite, lsn * kSubpageBytes,
                  count * kSubpageBytes, now);
    }
  }
  for (Lsn lsn = 0; lsn < 30'000; ++lsn) {
    const auto v = devices[0]->scheme().version_of(lsn);
    for (std::size_t d = 1; d < devices.size(); ++d) {
      EXPECT_EQ(devices[d]->scheme().version_of(lsn), v);
    }
  }
  for (auto& dev : devices) {
    dev->scheme().check_consistency();
  }
}

}  // namespace
}  // namespace ppssd
