// Address translation: the device map.
//
// Partial programming makes the subpage the unit of translation (the
// paper's Section 1: "partial programming requires a second-level mapping
// table"). The simulator therefore tracks ground truth as one flat
// logical-subpage -> physical-slot table covering both the SLC-mode cache
// and the MLC region; whether a subpage is cached is a property of the
// block it maps to (Geometry::is_slc_block).
//
// How much SRAM each *scheme* would need to realise its own translation
// structures (page-level for Baseline, two-level for MGA, page-level +
// offsets for IPU) is modelled separately by mapping_footprint.h — the
// Figure 11 numbers do not depend on this ground-truth representation.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/row_alloc.h"
#include "common/state_io.h"
#include "common/types.h"

namespace ppssd::ftl {

class DeviceMap {
 public:
  explicit DeviceMap(std::uint64_t logical_subpages)
      : table_(logical_subpages) {}

  [[nodiscard]] std::uint64_t logical_subpages() const {
    return table_.size();
  }

  /// Physical location of a logical subpage (invalid when unmapped).
  [[nodiscard]] PhysicalAddress lookup(Lsn lsn) const {
    PPSSD_DCHECK(lsn < table_.size());
    return table_[lsn].unpack();
  }

  [[nodiscard]] bool mapped(Lsn lsn) const {
    return table_[lsn].block != kInvalidBlock;
  }

  /// Bind a logical subpage to a slot. The LSN must currently be unmapped
  /// (supersede via clear() first) — this keeps every transition explicit.
  void set(Lsn lsn, const PhysicalAddress& addr) {
    PPSSD_CHECK(lsn < table_.size());
    PPSSD_CHECK(addr.valid());
    Packed& e = table_[lsn];
    PPSSD_CHECK_MSG(e.block == kInvalidBlock,
                    "mapping an LSN that is already mapped");
    e = Packed::pack(addr);
    ++mapped_count_;
  }

  /// Fused lookup-and-clear: unbind `lsn` and return its previous slot in
  /// one table access, or an invalid address when the LSN was unmapped
  /// (never-written LSNs are a legal fast-path case for the write path's
  /// supersede step, so this does not abort like clear()).
  [[nodiscard]] PhysicalAddress take(Lsn lsn) {
    PPSSD_DCHECK(lsn < table_.size());
    Packed& e = table_[lsn];
    const PhysicalAddress addr = e.unpack();
    if (e.block != kInvalidBlock) {
      e = Packed{};
      PPSSD_DCHECK(mapped_count_ > 0);
      --mapped_count_;
    }
    return addr;
  }

  /// Unbind a mapped logical subpage.
  void clear(Lsn lsn) {
    PPSSD_CHECK(lsn < table_.size());
    Packed& e = table_[lsn];
    PPSSD_CHECK_MSG(e.block != kInvalidBlock, "clearing an unmapped LSN");
    e = Packed{};
    PPSSD_CHECK(mapped_count_ > 0);
    --mapped_count_;
  }

  /// Number of currently mapped logical subpages.
  [[nodiscard]] std::uint64_t mapped_count() const { return mapped_count_; }

  /// Warm-start checkpointing (DESIGN.md §14): the whole table verbatim.
  void save(io::StateSink& sink) const {
    sink.vec(table_);
    sink.u64(mapped_count_);
  }
  void restore(io::StateSource& src) {
    // In place: the table is already sized for the device's LSN space and
    // vec_into sticky-fails on a length mismatch.
    (void)src.vec_into(table_);
    const std::uint64_t mapped = src.u64();
    PPSSD_CHECK_MSG(src.ok(),
                    "warm-start checkpoint does not match mapping shape");
    mapped_count_ = mapped;
  }

 private:
  struct Packed {
    BlockId block = kInvalidBlock;
    PageId page = 0;
    SubpageId subpage = 0;
    std::uint8_t reserved = 0;

    static Packed pack(const PhysicalAddress& a) {
      return Packed{a.block, a.page, a.subpage, 0};
    }
    [[nodiscard]] PhysicalAddress unpack() const {
      if (block == kInvalidBlock) return PhysicalAddress{};
      return PhysicalAddress{block, page, subpage};
    }
  };
  static_assert(sizeof(Packed) == 8, "DeviceMap entries should stay 8B");

  Row<Packed> table_;
  std::uint64_t mapped_count_ = 0;
};

}  // namespace ppssd::ftl
