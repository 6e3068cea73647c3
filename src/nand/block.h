// Flash block: the erase unit.
//
// A block operates in a fixed cell mode (SLC-mode cache block or native
// MLC block). Pages within a block must be programmed in ascending order
// for the *first* program (NAND sequential-program rule); partial programs
// may later revisit an SLC-mode page's free subpage slots, bounded by the
// per-page partial-program limit. An MLC page takes one program per erase.
//
// GC support: the block maintains running aggregates over its subpage
// population so victim scoring never walks pages:
//  * sum_write_time_ms() — sum of write times over *valid* subpages, so a
//    policy can form sum-of-ages as valid * now_ms - sum_write_time_ms.
//    Only SLC-mode slots keep a write time (ISR and the SLC GC fallback
//    are its only readers), so an MLC block's sum stays 0.
//  * an SLC-mode block's age histogram (FlashArray::age_histogram) — the
//    valid subpages living in never-updated pages (the Eq. 2 cold-movement
//    candidates), bucketed by log2(write time - last erase time) so an
//    age-weighted sum is O(buckets). MLC blocks have none: only the ISR
//    policy reads it, and ISR ranks SLC-mode blocks only.
// Both are maintained incrementally at program / invalidate / erase time
// and always equal a full rescan of the pages (see the invariant walk in
// cache::Scheme::check_consistency).
#pragma once

#include <cstdint>
#include <limits>

#include "common/types.h"
#include "nand/page.h"

namespace ppssd::nand {

class Block {
 public:
  Block(CellMode mode, std::uint32_t pages, std::uint32_t subpages_per_page);

  [[nodiscard]] CellMode mode() const { return mode_; }
  [[nodiscard]] std::uint32_t page_count() const { return page_count_; }
  [[nodiscard]] std::uint32_t subpages_per_page() const {
    return subpages_per_page_;
  }
  [[nodiscard]] std::uint32_t total_subpages() const {
    return page_count() * subpages_per_page_;
  }

  /// IPU block level (Work/Monitor/Hot, or HighDensity for MLC blocks).
  [[nodiscard]] BlockLevel level() const { return level_; }
  void set_level(BlockLevel level) { level_ = level; }

  [[nodiscard]] std::uint32_t erase_count() const { return erase_count_; }
  [[nodiscard]] SimTime last_erase_time() const { return last_erase_time_; }

  /// Next page that has never been programmed (append point), or
  /// page_count() when the block is fully opened.
  [[nodiscard]] std::uint32_t write_frontier() const { return frontier_; }
  [[nodiscard]] bool has_free_page() const { return frontier_ < page_count(); }

  [[nodiscard]] std::uint32_t valid_subpages() const { return valid_; }
  [[nodiscard]] std::uint32_t invalid_subpages() const { return invalid_; }
  [[nodiscard]] std::uint32_t programmed_subpages() const {
    return valid_ + invalid_;
  }

  /// Sum of write_time_ms over the block's valid subpages; always 0 for an
  /// MLC block, which keeps no write times.
  [[nodiscard]] std::uint64_t sum_write_time_ms() const {
    return sum_write_time_ms_;
  }

  /// Erase: resets the block's counters and bumps the P/E counter. Page
  /// counters, subpage slot contents and the age histogram live in
  /// FlashArray's rows; FlashArray::erase clears those.
  void erase(SimTime now);

 private:
  /// The fused array-level paths update frontier, counters and the age
  /// histogram directly in one pass over the touched slots; so do their
  /// test-only layer-by-layer oracles.
  friend class FlashArray;
  friend struct ReferencePaths;

  /// slc_ordinal_ of an MLC block.
  static constexpr std::uint32_t kNotSlc =
      std::numeric_limits<std::uint32_t>::max();

  // Every field is a write-path scalar; the SLC ordinal sits in what
  // would be padding before the 8-byte fields.
  CellMode mode_;
  BlockLevel level_;
  std::uint32_t page_count_;
  std::uint32_t subpages_per_page_;
  std::uint32_t frontier_ = 0;
  std::uint32_t valid_ = 0;
  std::uint32_t invalid_ = 0;
  std::uint32_t erase_count_ = 0;
  /// Dense ordinal of an SLC-mode block (Geometry::slc_ordinal), or
  /// kNotSlc. It indexes FlashArray's histogram row and SLC-only slot rows.
  std::uint32_t slc_ordinal_ = kNotSlc;
  std::uint64_t sum_write_time_ms_ = 0;
  SimTime last_erase_time_ = 0;
};
static_assert(sizeof(Block) <= 48,
              "Block sets the block row's density (at most 48 bytes)");

}  // namespace ppssd::nand
