// Fused vs reference write-path equivalence (DESIGN.md §10).
//
// FlashArray::program / ::invalidate are single-pass fused
// implementations. This file holds their layer-by-layer oracles
// (ReferencePaths, a friend of FlashArray) and drives thousands of
// randomized program / invalidate / erase sequences through two arrays
// built from the same config — one using the fused entry points, one the
// oracles — asserting the complete observable state stays identical at
// every step: per-subpage fields (owner, version, write time, disturb
// snapshots), page counters, block running aggregates including the age
// histogram, array counters, and the BlockObserver event stream.
// prefill_page is additionally locked to a frontier-fill through the
// reference path at sim time 0.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/units.h"
#include "nand/flash_array.h"

namespace ppssd::nand {

/// The layer-by-layer program and invalidate chains: checks, then
/// per-slot stamping, then aggregate updates, each as its own pass, with
/// SLC-only row indices derived from the geometry rather than the block's
/// cached ordinal.
struct ReferencePaths {
  static std::size_t slc_slot(const FlashArray& a, BlockId b, PageId p,
                              SubpageId s) {
    const Geometry& g = a.geom_;
    return (static_cast<std::size_t>(g.slc_ordinal(b)) *
                g.pages_per_block(CellMode::kSlc) +
            p) *
               a.spp_ +
           s;
  }

  static bool program(FlashArray& a, BlockId b, PageId p,
                      std::span<const SlotWrite> writes, SimTime now) {
    PPSSD_CHECK(b < a.blocks_.size());
    PPSSD_CHECK(!writes.empty());
    Block& blk = a.blocks_[b];
    PPSSD_CHECK(p < blk.page_count());
    const bool slc = a.geom_.is_slc_block(b);
    const std::size_t pi = a.page_index(b, p);
    Page& pg = a.pages_[pi];
    if (pg.programmed()) {
      PPSSD_CHECK_MSG(a.can_partial_program(b, p),
                      "partial-program limit exceeded or no free slot");
    }
    const std::size_t base = pi * a.spp_;

    // Layer "block": frontier rule and the cold-population transition.
    const std::uint8_t pre_ops = pg.program_ops_;
    AgeHistogram* const hist = a.histogram_of(blk);
    if (pre_ops == 0) {
      PPSSD_CHECK_MSG(p == blk.frontier_,
                      "out-of-order first program of a page");
      ++blk.frontier_;
    } else if (pre_ops == 1 && hist != nullptr) {
      for (std::uint32_t s = 0; s < a.spp_; ++s) {
        if (a.sp_state_[base + s] ==
            static_cast<std::uint8_t>(SubpageState::kValid)) {
          hist->remove(
              a.slc_wtime_[slc_slot(a, b, p, static_cast<SubpageId>(s))]);
        }
      }
    }

    // Layer "page": write-once slot stamping in its own pass.
    PPSSD_CHECK(pre_ops < std::numeric_limits<std::uint8_t>::max());
    const auto wt = static_cast<std::uint32_t>(now / 1'000'000);
    for (const SlotWrite& w : writes) {
      PPSSD_CHECK(w.slot < a.spp_);
      const std::size_t i = base + w.slot;
      PPSSD_CHECK_MSG(a.sp_state_[i] ==
                          static_cast<std::uint8_t>(SubpageState::kFree),
                      "programming a non-free subpage (NAND write-once rule)");
      a.sp_state_[i] = static_cast<std::uint8_t>(SubpageState::kValid);
      a.sp_owner_[i] = static_cast<std::uint32_t>(w.lsn);
      a.sp_version_[i] = w.version;
      if (slc) {
        const std::size_t j = slc_slot(a, b, p, w.slot);
        a.slc_wtime_[j] = wt;
        a.slc_programs_before_[j] = pre_ops;
        a.slc_neighbors_before_[j] = pg.neighbor_programs_;
      }
    }
    pg.program_ops_ = static_cast<std::uint8_t>(pre_ops + 1);
    const bool partial = pre_ops > 0;

    // Layer "block" aggregates, separate pass.
    const auto n = static_cast<std::uint32_t>(writes.size());
    blk.valid_ += n;
    if (slc) blk.sum_write_time_ms_ += static_cast<std::uint64_t>(wt) * n;
    if (pre_ops == 0 && hist != nullptr) hist->add(wt, n);

    // Wordline adjacency: programming page p disturbs pages p-1 and p+1
    // of the same block if they already hold data (Figure 1).
    if (p > 0 && a.pages_[pi - 1].programmed()) {
      a.pages_[pi - 1].absorb_neighbor_program();
    }
    if (p + 1u < blk.page_count() && a.pages_[pi + 1].programmed()) {
      a.pages_[pi + 1].absorb_neighbor_program();
    }

    if (blk.mode() == CellMode::kSlc) {
      ++a.counters_.slc_program_ops;
      a.counters_.slc_subpages_written += n;
    } else {
      ++a.counters_.mlc_program_ops;
      a.counters_.mlc_subpages_written += n;
    }
    if (partial) ++a.counters_.partial_program_ops;
    a.planes_[a.geom_.plane_of(b)].count_program();
    return partial;
  }

  static void invalidate(FlashArray& a, BlockId b, PageId p, SubpageId s) {
    PPSSD_CHECK(b < a.blocks_.size());
    Block& blk = a.blocks_[b];
    PPSSD_CHECK(p < blk.page_count());
    PPSSD_CHECK(s < a.spp_);
    const std::size_t i = a.slot_index(b, p, s);

    // Layer "page": the state flip.
    PPSSD_CHECK_MSG(a.sp_state_[i] ==
                        static_cast<std::uint8_t>(SubpageState::kValid),
                    "invalidating a subpage that is not valid");
    a.sp_state_[i] = static_cast<std::uint8_t>(SubpageState::kInvalid);

    // Layer "block": aggregates in a separate pass.
    PPSSD_CHECK(blk.valid_ > 0);
    --blk.valid_;
    ++blk.invalid_;
    if (a.geom_.is_slc_block(b)) {
      const std::uint32_t wt = a.slc_wtime_[slc_slot(a, b, p, s)];
      blk.sum_write_time_ms_ -= wt;
      if (a.page(b, p).program_ops() == 1) a.histogram_of(blk)->remove(wt);
    }
    if (a.observer_ != nullptr) {
      a.observer_->on_subpage_invalidated(b, blk.invalid_);
    }
  }
};

namespace {

struct ObservedEvent {
  BlockId block;
  std::uint32_t invalid;
  bool operator==(const ObservedEvent&) const = default;
};

class RecordingObserver : public BlockObserver {
 public:
  void on_subpage_invalidated(BlockId b, std::uint32_t invalid) override {
    events.push_back({b, invalid});
  }
  std::vector<ObservedEvent> events;
};

void expect_same_state(const FlashArray& fused, const FlashArray& ref) {
  const auto& geom = fused.geometry();
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const Block& fb = fused.block(b);
    const Block& rb = ref.block(b);
    ASSERT_EQ(fb.write_frontier(), rb.write_frontier()) << "block " << b;
    ASSERT_EQ(fb.valid_subpages(), rb.valid_subpages()) << "block " << b;
    ASSERT_EQ(fb.invalid_subpages(), rb.invalid_subpages()) << "block " << b;
    ASSERT_EQ(fb.sum_write_time_ms(), rb.sum_write_time_ms())
        << "block " << b;
    // SLC-mode blocks keep an age histogram; MLC blocks keep none.
    const AgeHistogram* fh = fused.age_histogram(b);
    const AgeHistogram* rh = ref.age_histogram(b);
    ASSERT_EQ(fh != nullptr, fb.mode() == CellMode::kSlc) << "block " << b;
    ASSERT_EQ(rh != nullptr, rb.mode() == CellMode::kSlc) << "block " << b;
    if (fh != nullptr) {
      ASSERT_EQ(fh->total(), rh->total()) << "block " << b;
      ASSERT_TRUE(*fh == *rh) << "block " << b;
    }
    ASSERT_EQ(fb.erase_count(), rb.erase_count()) << "block " << b;
    ASSERT_EQ(fb.last_erase_time(), rb.last_erase_time()) << "block " << b;
    for (PageId p = 0; p < fb.page_count(); ++p) {
      const Page& fp = fused.page(b, p);
      const Page& rp = ref.page(b, p);
      ASSERT_EQ(fp.program_ops(), rp.program_ops())
          << "block " << b << " page " << p;
      ASSERT_EQ(fp.neighbor_programs(), rp.neighbor_programs())
          << "block " << b << " page " << p;
      for (SubpageId s = 0; s < fb.subpages_per_page(); ++s) {
        const Subpage fs = fused.subpage(b, p, s);
        const Subpage rs = ref.subpage(b, p, s);
        ASSERT_EQ(fs.state, rs.state)
            << "block " << b << " page " << p << " slot " << int(s);
        ASSERT_EQ(fs.owner_lsn, rs.owner_lsn);
        ASSERT_EQ(fs.version, rs.version);
        ASSERT_EQ(fs.write_time_ms, rs.write_time_ms);
        ASSERT_EQ(fs.programs_before, rs.programs_before);
        ASSERT_EQ(fs.neighbors_before, rs.neighbors_before);
        if (fs.state != SubpageState::kFree) {
          ASSERT_EQ(fused.disturb_of(b, p, s).in_page_disturbs,
                    ref.disturb_of(b, p, s).in_page_disturbs);
          ASSERT_EQ(fused.disturb_of(b, p, s).neighbor_disturbs,
                    ref.disturb_of(b, p, s).neighbor_disturbs);
        }
      }
    }
  }
  const ArrayCounters& fc = fused.counters();
  const ArrayCounters& rc = ref.counters();
  ASSERT_EQ(fc.slc_program_ops, rc.slc_program_ops);
  ASSERT_EQ(fc.mlc_program_ops, rc.mlc_program_ops);
  ASSERT_EQ(fc.partial_program_ops, rc.partial_program_ops);
  ASSERT_EQ(fc.slc_subpages_written, rc.slc_subpages_written);
  ASSERT_EQ(fc.mlc_subpages_written, rc.mlc_subpages_written);
  ASSERT_EQ(fc.slc_erases, rc.slc_erases);
  ASSERT_EQ(fc.mlc_erases, rc.mlc_erases);
  for (std::uint32_t p = 0; p < fused.geometry().planes(); ++p) {
    ASSERT_EQ(fused.plane(p).programs(), ref.plane(p).programs());
    ASSERT_EQ(fused.plane(p).erases(), ref.plane(p).erases());
  }
}

class FusedPathEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FusedPathEquivalence, RandomSequencesAgree) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = 4;
  FlashArray fused(cfg);
  FlashArray ref(cfg);
  RecordingObserver fused_obs;
  RecordingObserver ref_obs;
  fused.set_block_observer(&fused_obs);
  ref.set_block_observer(&ref_obs);

  const auto& geom = fused.geometry();
  Rng rng(GetParam());
  Lsn next_lsn = 1;
  SimTime now = 0;

  // Valid slots available to invalidate, appended as programs land.
  struct Slot {
    BlockId b;
    PageId p;
    SubpageId s;
  };
  std::vector<Slot> valid_slots;

  for (int step = 0; step < 4000; ++step) {
    now += ms_to_ns(static_cast<double>(rng.next_below(5)));
    const auto op = rng.next_below(100);
    if (op < 70) {
      // Program: pick a block, then either its frontier page (first
      // program) or an already-programmed page (partial program).
      const BlockId b =
          static_cast<BlockId>(rng.next_below(geom.total_blocks()));
      const Block& blk = fused.block(b);
      PageId p = kInvalidPage;
      if (blk.has_free_page() && rng.chance(0.6)) {
        p = static_cast<PageId>(blk.write_frontier());
      } else if (blk.write_frontier() > 0) {
        p = static_cast<PageId>(rng.next_below(blk.write_frontier()));
        if (!fused.can_partial_program(b, p)) p = kInvalidPage;
      }
      if (p == kInvalidPage) continue;
      // Fill 1..free_slots random free slots.
      std::vector<SlotWrite> writes;
      for (SubpageId s = 0; s < blk.subpages_per_page(); ++s) {
        if (fused.subpage_state(b, p, s) == SubpageState::kFree &&
            (writes.empty() || rng.chance(0.4))) {
          writes.push_back({s, next_lsn, static_cast<std::uint32_t>(
                                             1 + rng.next_below(9))});
          ++next_lsn;
        }
      }
      if (writes.empty()) continue;
      const bool fused_partial = fused.program(b, p, writes, now);
      const bool ref_partial = ReferencePaths::program(ref, b, p, writes, now);
      ASSERT_EQ(fused_partial, ref_partial);
      for (const SlotWrite& w : writes) valid_slots.push_back({b, p, w.slot});
    } else if (op < 95) {
      if (valid_slots.empty()) continue;
      const auto i = rng.next_below(valid_slots.size());
      const Slot slot = valid_slots[i];
      valid_slots[i] = valid_slots.back();
      valid_slots.pop_back();
      fused.invalidate(slot.b, slot.p, slot.s);
      ReferencePaths::invalidate(ref, slot.b, slot.p, slot.s);
    } else {
      // Erase a block with no remaining valid data.
      const BlockId b =
          static_cast<BlockId>(rng.next_below(geom.total_blocks()));
      if (fused.block(b).valid_subpages() != 0 ||
          fused.block(b).programmed_subpages() == 0) {
        continue;
      }
      fused.erase(b, now);
      ref.erase(b, now);
    }
    if (step % 256 == 0) {
      expect_same_state(fused, ref);
      ASSERT_EQ(fused_obs.events, ref_obs.events);
    }
  }
  expect_same_state(fused, ref);
  ASSERT_EQ(fused_obs.events, ref_obs.events);
  ASSERT_FALSE(fused_obs.events.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedPathEquivalence,
                         ::testing::Values(1u, 2u, 3u, 29u, 1234567u));

// prefill_page must equal a frontier program through the reference chain
// at sim time 0 — it is the Scheme setup fast path.
TEST(FusedPathEquivalence, PrefillMatchesReferenceFrontierFill) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  FlashArray fused(cfg);
  FlashArray ref(cfg);
  const auto& geom = fused.geometry();
  const BlockId mlc0 = geom.slc_blocks_per_plane();  // first MLC, plane 0
  Lsn lsn = 0;
  std::vector<SlotWrite> writes;
  for (const BlockId b : {BlockId{0}, mlc0}) {
    const std::uint32_t pages = fused.block(b).page_count();
    for (PageId p = 0; p < pages; ++p) {
      writes.clear();
      // Vary fill width like prefill_mlc's final partial page.
      const std::uint32_t n = static_cast<std::uint32_t>(p) + 1 == pages
                                  ? 1u
                                  : geom.subpages_per_page();
      for (std::uint32_t s = 0; s < n; ++s) {
        writes.push_back({static_cast<SubpageId>(s), lsn, 1});
        ++lsn;
      }
      fused.prefill_page(b, p, writes);
      ReferencePaths::program(ref, b, p, writes, /*now=*/0);
    }
  }
  expect_same_state(fused, ref);
}

}  // namespace
}  // namespace ppssd::nand
