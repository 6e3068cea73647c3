// Write-path microbenchmark: program/invalidate cost.
//
//   ./write_bench
//
// For each device size (2048 / 8192 / 32768 blocks) and each cell mode the
// bench drives a fill/drain cycle through the two hottest array
// operations:
//
//   write/program/fused        FlashArray::program (single-pass)
//   write/invalidate/fused     FlashArray::invalidate (single-pass)
//
// plus the attribution-overhead pair — the full Ssd submit path with the
// per-request blame ledger detached (null-handle hot path) and attached:
//
//   write/attrib/off           Ssd::submit, ledger detached
//   write/attrib/on            Ssd::submit, ledger attached
//
// The pair runs in ten rounds, off then on in each, every round at least
// 0.05 s per variant; its table prints each variant's median ns per
// submit over the rounds with the quartiles around it.
//
// A cycle fills plane 0's region page by page through the real allocator,
// then drains it. An SLC-mode page takes a conventional program of
// all-but-one slot, and every other page a partial program of the last
// slot; an MLC page takes one whole-page program (one program per erase).
// The drain is symmetric: every valid subpage is
// invalidated — exercising the BlockManager victim-index observer exactly
// like the simulator's supersede path — and the blocks are erased and
// released. Program timing covers the fill loop, invalidate timing the
// drain loop, so each figure is the operation in its realistic
// surroundings rather than a bare call in a cache-hot microloop.
//
// The bench prints one table and writes nothing; perfbench/ is the
// repository benchmark that speed claims rest on.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "common/units.h"
#include "core/report.h"
#include "ftl/block_manager.h"
#include "nand/flash_array.h"
#include "sim/ssd.h"
#include "telemetry/telemetry.h"

using namespace ppssd;
using bench::kMinMeasureSeconds;
using bench::Timing;
using core::Table;

namespace {

/// One fill/drain cycle over plane 0's region. Accumulates program timing
/// over the fill loop and invalidate timing over the drain loop.
void run_cycle(nand::FlashArray& arr, ftl::BlockManager& bm, CellMode mode,
               SimTime& now, Timing& program, Timing& invalidate) {
  using clock = std::chrono::steady_clock;
  const BlockLevel level =
      mode == CellMode::kSlc ? BlockLevel::kWork : BlockLevel::kHighDensity;
  const std::uint32_t floor = bm.gc_threshold_blocks(mode) + 1;
  const std::uint32_t spp = arr.geometry().subpages_per_page();
  // SLC conventional programs fill all but the last slot; every other
  // page then takes a partial program, mirroring the cache's update
  // pattern. MLC pages are programmed whole, once.
  const bool partial = mode == CellMode::kSlc && spp > 1;
  const std::uint32_t head = partial ? spp - 1 : spp;

  Lsn lsn = 0;
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  const auto fill_start = clock::now();
  while (bm.free_blocks(0, mode) > floor) {
    const auto alloc = bm.allocate_page(0, level);
    if (!alloc) break;
    now += ms_to_ns(1.0);
    for (std::uint32_t s = 0; s < head; ++s) {
      writes[s] = {static_cast<SubpageId>(s), lsn + s};
    }
    arr.program(alloc->block, alloc->page,
                std::span<const nand::SlotWrite>(writes.data(), head), now);
    ++program.calls;
    if (partial && alloc->page % 2 == 0) {
      const nand::SlotWrite upd[] = {
          {static_cast<SubpageId>(spp - 1), lsn + spp - 1}};
      arr.program(alloc->block, alloc->page, upd, now);
      ++program.calls;
    }
    lsn += spp;
  }
  program.seconds +=
      std::chrono::duration<double>(clock::now() - fill_start).count();

  // Drain: invalidate every valid subpage of every closed block (through
  // the BlockManager observer, as the supersede path does), then erase.
  std::vector<BlockId> victims;
  bm.for_each_candidate(0, mode, [&](BlockId b) { victims.push_back(b); });
  const auto drain_start = clock::now();
  for (const BlockId b : victims) {
    const nand::Block& blk = arr.block(b);
    const std::uint32_t pages = blk.write_frontier();
    for (std::uint32_t p = 0; p < pages; ++p) {
      for (std::uint32_t s = 0; s < spp; ++s) {
        if (arr.subpage_state(b, static_cast<PageId>(p),
                              static_cast<SubpageId>(s)) !=
            nand::SubpageState::kValid) {
          continue;
        }
        arr.invalidate(b, static_cast<PageId>(p), static_cast<SubpageId>(s));
        ++invalidate.calls;
      }
    }
  }
  invalidate.seconds +=
      std::chrono::duration<double>(clock::now() - drain_start).count();

  for (const BlockId b : victims) {
    arr.erase(b, now);
    bm.release_block(b);
  }
}

/// Repeat cycles on a fresh device until both loops have accrued enough
/// measured time.
std::pair<Timing, Timing> run_variant(std::uint32_t blocks, CellMode mode) {
  nand::FlashArray arr(bench::single_plane_config(blocks));
  ftl::BlockManager bm(arr);

  Timing program;
  Timing invalidate;
  SimTime now = 0;
  while (program.seconds < kMinMeasureSeconds ||
         invalidate.seconds < kMinMeasureSeconds) {
    run_cycle(arr, bm, mode, now, program, invalidate);
  }
  return {program, invalidate};
}

const char* mode_name(CellMode mode) {
  return mode == CellMode::kSlc ? "slc" : "mlc";
}

/// Attribution-overhead cell: the full host submit path (IPU scheme,
/// GC, the works) with the blame ledger detached or attached. The
/// detached figure shows the null-handle hot path; the attached figure
/// prices the ledger for users who turn it on. The device lives across
/// rounds, and both variants submit the same request sequence.
class AttribCell {
 public:
  explicit AttribCell(bool attached)
      : ssd_(SsdConfig::scaled(2048), "IPU"), tel_([] {
          telemetry::TelemetryOptions opts;
          opts.attribution = true;
          return opts;
        }()) {
    if (attached) ssd_.attach_telemetry(&tel_);
  }

  /// Submit for at least kMinMeasureSeconds; returns ns per submit.
  double round() {
    using clock = std::chrono::steady_clock;
    Timing t;
    while (t.seconds < kMinMeasureSeconds) {
      const auto start = clock::now();
      for (int i = 0; i < 2048; ++i) {
        // 3:1 write:read mix over a wrapping strided address pattern —
        // enough churn to keep GC (and thus interference blame) active.
        const OpType op = (i & 3) == 3 ? OpType::kRead : OpType::kWrite;
        ssd_.submit(op, (lsn_ * 17) * kSubpageBytes, kSubpageBytes, now_);
        now_ += us_to_ns(20.0);
        ++lsn_;
        ++t.calls;
      }
      t.seconds +=
          std::chrono::duration<double>(clock::now() - start).count();
    }
    return t.ns_per_call();
  }

 private:
  sim::Ssd ssd_;
  telemetry::Telemetry tel_;
  std::uint64_t lsn_ = 0;
  SimTime now_ = 0;
};

/// Rounds of the attribution pair. Off and on alternate within each
/// round, so host noise lands on both alike, and each variant runs at
/// least kAttribRounds * kMinMeasureSeconds = 0.5 s in all.
constexpr int kAttribRounds = 10;

/// Quantile `q` of `v` (sorted in place), by linear interpolation.
double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

int main() {
  Table table({"cell", "ns/op", "ops/s"});
  for (const std::uint32_t blocks : bench::kMicroSizes) {
    for (const CellMode mode : {CellMode::kSlc, CellMode::kMlc}) {
      const auto [prog, inv] = run_variant(blocks, mode);
      struct Cell {
        const char* family;
        const Timing& timing;
      } cells[] = {{"program", prog}, {"invalidate", inv}};
      for (const Cell& c : cells) {
        const std::string key = std::string("write/") + c.family +
                                "/fused/" + mode_name(mode) + "/" +
                                std::to_string(blocks);
        table.add_row({key, Table::fmt(c.timing.ns_per_call(), 1),
                       Table::fmt(c.timing.calls_per_sec(), 0)});
      }
    }
  }

  std::printf("%s\n", table.render("Write-path program/invalidate").c_str());

  AttribCell off(false);
  AttribCell on(true);
  std::vector<double> ns[2];
  for (int r = 0; r < kAttribRounds; ++r) {
    ns[0].push_back(off.round());
    ns[1].push_back(on.round());
  }
  Table attrib({"cell", "ns/op median", "q1", "q3", "rounds"});
  for (const bool attached : {false, true}) {
    std::vector<double>& v = ns[attached ? 1 : 0];
    attrib.add_row({std::string("write/attrib/") + (attached ? "on" : "off"),
                    Table::fmt(quantile(v, 0.5), 1),
                    Table::fmt(quantile(v, 0.25), 1),
                    Table::fmt(quantile(v, 0.75), 1),
                    std::to_string(v.size())});
  }
  std::printf("%s\n",
              attrib.render("Ssd::submit, blame ledger detached / attached")
                  .c_str());
  return 0;
}
