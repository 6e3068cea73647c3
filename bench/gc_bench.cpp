// GC victim-selection microbenchmark.
//
//   ./gc_bench
//
// For each device size (2048 / 8192 / 32768 blocks) the bench builds a
// steady-state SLC region on one plane — staggered write times, a share
// of updated pages, per-block invalidation counts — then times the two
// library policies on identical state:
//
//   greedy/indexed    BlockManager bucket index (O(1) amortized)
//   isr/indexed       block aggregates: O(1) age sums + histogram folds
//
// Both should stay flat as the candidate count grows with device size.
// Their full-scan oracles are test-only (tests/support/gc_reference.h).
//
// The bench prints one table and writes nothing; perfbench/ is the
// repository benchmark that speed claims rest on.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "common/units.h"
#include "core/report.h"
#include "ftl/block_manager.h"
#include "ftl/gc_policy.h"
#include "nand/flash_array.h"

using namespace ppssd;
using bench::kMinMeasureSeconds;
using bench::Timing;
using core::Table;

namespace {

/// Fill plane 0's SLC region into GC-candidate shape. Returns the sim
/// time just after the last write.
SimTime populate_slc_plane(nand::FlashArray& arr, ftl::BlockManager& bm) {
  const std::uint32_t floor = bm.gc_threshold_blocks(CellMode::kSlc) + 1;
  Lsn lsn = 0;
  std::uint64_t page_seq = 0;
  // Program slots {0,1,2} of every page; every third page later takes a
  // partial program in slot 3 and becomes "updated".
  while (bm.free_blocks(0, CellMode::kSlc) > floor) {
    const auto alloc = bm.allocate_page(0, BlockLevel::kWork);
    if (!alloc) break;
    const SimTime t = ms_to_ns(static_cast<double>(++page_seq));
    const nand::SlotWrite first[] = {{0, lsn}, {1, lsn + 1}, {2, lsn + 2}};
    arr.program(alloc->block, alloc->page, first, t);
    if (alloc->page % 3 == 0) {
      const nand::SlotWrite upd[] = {{3, lsn + 3}};
      arr.program(alloc->block, alloc->page, upd, t + ms_to_ns(0.5));
    }
    lsn += 4;
  }

  // Give every candidate its own invalid count (0 .. half the block).
  std::vector<BlockId> candidates;
  bm.for_each_candidate(0, CellMode::kSlc,
                        [&](BlockId b) { candidates.push_back(b); });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const nand::Block& blk = arr.block(candidates[i]);
    const std::uint32_t half = blk.total_subpages() / 2;
    std::uint32_t budget = static_cast<std::uint32_t>(i * 131) % half;
    for (std::uint32_t p = 0; p < blk.page_count() && budget > 0; ++p) {
      for (std::uint32_t s = 0; s < 3 && budget > 0; ++s, --budget) {
        arr.invalidate(candidates[i], static_cast<PageId>(p),
                       static_cast<SubpageId>(s));
      }
    }
  }
  return ms_to_ns(static_cast<double>(page_seq) + 10'000.0);
}

/// Time repeated calls of `fn` until kMinMeasureSeconds elapsed.
template <typename Fn>
Timing time_select(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  // Warm caches and fault in any lazy state before timing.
  BlockId sink = fn();
  Timing t;
  std::uint64_t batch = 8;
  const auto start = clock::now();
  for (;;) {
    for (std::uint64_t i = 0; i < batch; ++i) sink ^= fn();
    t.calls += batch;
    t.seconds = std::chrono::duration<double>(clock::now() - start).count();
    if (t.seconds >= kMinMeasureSeconds) break;
    batch *= 2;
  }
  // Keep the selections observable so the loop cannot be elided.
  if (sink == kInvalidBlock - 1) std::printf("\n");
  return t;
}

}  // namespace

int main() {
  Table table({"cell", "candidates", "ns/select", "selects/s"});
  for (const std::uint32_t blocks : bench::kMicroSizes) {
    // One plane: the whole block budget lands in a single SLC region, so
    // candidate count grows with device size.
    nand::FlashArray arr(bench::single_plane_config(blocks));
    ftl::BlockManager bm(arr);
    const SimTime now = populate_slc_plane(arr, bm);
    std::uint64_t candidates = 0;
    bm.for_each_candidate(0, CellMode::kSlc, [&](BlockId) { ++candidates; });

    const ftl::GreedyPolicy greedy;
    const ftl::IsrPolicy isr;
    struct Variant {
      const char* name;
      Timing timing;
    } variants[] = {
        {"greedy/indexed", time_select([&] {
           return greedy.select_victim(arr, bm, 0, CellMode::kSlc, now);
         })},
        {"isr/indexed", time_select([&] {
           return isr.select_victim(arr, bm, 0, CellMode::kSlc, now);
         })},
    };

    for (const Variant& v : variants) {
      const std::string key =
          std::string("gc/select/") + v.name + "/" + std::to_string(blocks);
      table.add_row({key, Table::count(candidates),
                     Table::fmt(v.timing.ns_per_call(), 0),
                     Table::fmt(v.timing.calls_per_sec(), 0)});
    }
  }

  std::printf("%s\n", table.render("GC victim selection").c_str());
  return 0;
}
