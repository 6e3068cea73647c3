// Bulk MLC prefill vs the page-at-a-time oracle (DESIGN.md §10, "Bulk
// prefill").
//
// Scheme::prefill_mlc lays the fill out in closed form: a block-major pass
// over the array, then an LSN-order pass over the device map. The oracle
// (cache::ReferencePrefill) is the round-robin page loop it replaced.
// Both run on twin freshly built schemes; the complete checkpoint stream
// (Scheme::save), the returned fill size and the per-plane program
// counters must be identical across a grid of geometries, fill sizes,
// free-block floors (down to none left to take) and round-robin start
// planes, rotating through every registered scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cache/registry.h"
#include "cache/scheme.h"
#include "common/state_io.h"
#include "support/reference_paths.h"

namespace ppssd::cache {

namespace {

std::vector<std::uint8_t> checkpoint(const Scheme& scheme) {
  io::StateSink sink;
  scheme.save(sink);
  return sink.take();
}

/// run_warmup's floor: the MLC GC threshold plus 3% of a plane's MLC
/// blocks, at least 3.
std::uint32_t warmup_floor(const Scheme& scheme) {
  const auto& geom = scheme.array().geometry();
  return scheme.blocks().gc_threshold_blocks(CellMode::kMlc) +
         std::max<std::uint32_t>(
             3, static_cast<std::uint32_t>(
                    0.03 * (geom.blocks_per_plane() -
                            geom.slc_blocks_per_plane())));
}

/// One geometry of the grid. The prefill is base-class code, and a scheme
/// only adds side state to the checkpoint, so each case runs on one
/// scheme, rotating through the registry. Without `full_grid` a geometry
/// keeps one fill that reaches the floor, one that ends on a short page,
/// and the one- and no-page-per-plane floors, which is where the layout
/// has edges: each case builds and checkpoints two devices, a tenth of a
/// second at 8,192 blocks in an optimized build.
struct PrefillGrid {
  std::uint32_t blocks;
  bool full_grid;
};

void PrintTo(const PrefillGrid& grid, std::ostream* os) {
  *os << grid.blocks << " blocks";
}

class PrefillEquivalence : public ::testing::TestWithParam<PrefillGrid> {};

TEST_P(PrefillEquivalence, BulkMatchesPageLoop) {
  const PrefillGrid grid = GetParam();
  const SsdConfig cfg = SsdConfig::scaled(grid.blocks);
  const std::vector<std::string> names = SchemeRegistry::instance().names();
  const auto probe = make_scheme(names.front(), cfg);
  const auto& geom = probe->array().geometry();
  const std::uint64_t logical = geom.logical_subpages();
  const std::uint64_t spp = geom.subpages_per_page();
  const std::uint32_t free = probe->blocks().free_blocks(0, CellMode::kMlc);
  std::vector<std::uint64_t> sizes = {1000 * spp + 3, logical + 123};
  std::vector<std::uint32_t> floors = {warmup_floor(*probe), free - 1, free};
  if (grid.full_grid) {
    sizes.insert(sizes.end(), {1, 7, 1000 * spp, logical});
    floors.insert(floors.end(), {2, 3, 100});
  }
  std::size_t cases = 0;
  for (const std::uint64_t max : sizes) {
    for (const std::uint32_t floor : floors) {
      const auto start = static_cast<std::uint32_t>(cases * 5 % geom.planes());
      const std::string& name = names[cases % names.size()];
      SCOPED_TRACE(name + " blocks=" + std::to_string(grid.blocks) +
                   " max=" + std::to_string(max) +
                   " floor=" + std::to_string(floor) +
                   " start=" + std::to_string(start));
      const auto bulk = make_scheme(name, cfg);
      const auto oracle = make_scheme(name, cfg);
      ReferencePrefill::set_cursor(*bulk, start);
      ReferencePrefill::set_cursor(*oracle, start);
      EXPECT_EQ(bulk->prefill_mlc(max, floor),
                ReferencePrefill::prefill_mlc(*oracle, max, floor));
      ASSERT_TRUE(checkpoint(*bulk) == checkpoint(*oracle));
      for (std::uint32_t p = 0; p < geom.planes(); ++p) {
        ASSERT_EQ(bulk->array().plane(p).programs(),
                  oracle->array().plane(p).programs());
      }
      ++cases;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, PrefillEquivalence,
                         ::testing::Values(PrefillGrid{1024, true},
                                           PrefillGrid{2048, true},
                                           PrefillGrid{4096, false},
                                           PrefillGrid{8192, false}),
                         [](const auto& info) {
                           std::string name = "b";
                           name += std::to_string(info.param.blocks);
                           return name;
                         });

TEST(Prefill, FillIsConsistent) {
  const auto scheme = make_scheme("IPU", SsdConfig::scaled(2048));
  const auto& geom = scheme->array().geometry();
  const std::uint64_t filled =
      scheme->prefill_mlc(geom.logical_subpages(), warmup_floor(*scheme));
  EXPECT_EQ(scheme->device_map().mapped_count(), filled);
  scheme->check_consistency();
}

TEST(PrefillDeathTest, RejectsWrittenDevice) {
  const auto scheme = make_scheme("Baseline", SsdConfig::scaled(1024));
  std::vector<PhysOp> ops;
  scheme->host_write(0, 1, 0, ops);
  EXPECT_DEATH(scheme->prefill_mlc(1000, 2),
               "MLC prefill needs a never-written device");
}

TEST(PrefillDeathTest, RejectsSecondPrefill) {
  const auto scheme = make_scheme("Baseline", SsdConfig::scaled(1024));
  scheme->prefill_mlc(1000, 2);
  EXPECT_DEATH(scheme->prefill_mlc(1000, 2),
               "MLC prefill needs a never-written device");
}

}  // namespace
}  // namespace ppssd::cache
