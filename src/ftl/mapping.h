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
//
// Each LSN's entry is 8 bytes: a 32-bit slot code and the LSN's current
// version, which the write path reads and bumps together with the
// mapping, so a supersede touches one cache line. The slot code packs
// block, page and subpage with widths derived from the geometry
// (GeometryConfig::slot_page_bits/slot_subpage_bits); SsdConfig::validate
// rejects a device whose block ids do not fit the bits above them.
#pragma once

#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/row_alloc.h"
#include "common/state_io.h"
#include "common/types.h"

namespace ppssd::ftl {

class DeviceMap {
 public:
  /// `page_bits`/`subpage_bits` are the slot code's field widths: enough
  /// bits for the largest page and subpage index of the geometry.
  DeviceMap(std::uint64_t logical_subpages, std::uint32_t page_bits,
            std::uint32_t subpage_bits)
      : table_(logical_subpages),
        sub_bits_(subpage_bits),
        block_shift_(page_bits + subpage_bits),
        page_mask_((std::uint32_t{1} << page_bits) - 1),
        sub_mask_((std::uint32_t{1} << subpage_bits) - 1) {
    PPSSD_CHECK(block_shift_ < 32);
  }

  [[nodiscard]] std::uint64_t logical_subpages() const {
    return table_.size();
  }

  /// Physical location of a logical subpage (invalid when unmapped).
  [[nodiscard]] PhysicalAddress lookup(Lsn lsn) const {
    PPSSD_DCHECK(lsn < table_.size());
    return unpack(table_[lsn].slot);
  }

  /// Cache hint for `lsn`'s entry, ahead of a lookup (DESIGN.md §10,
  /// "Request lookahead"). Changes no state.
  void prefetch(Lsn lsn) const {
    PPSSD_DCHECK(lsn < table_.size());
    __builtin_prefetch(table_.data() + lsn);
  }

  [[nodiscard]] bool mapped(Lsn lsn) const {
    return table_[lsn].slot != kUnmapped;
  }

  /// Bind a logical subpage to a slot. The LSN must currently be unmapped
  /// (supersede via clear() first) — this keeps every transition explicit.
  /// The LSN's version is untouched.
  void set(Lsn lsn, const PhysicalAddress& addr) {
    PPSSD_CHECK(lsn < table_.size());
    PPSSD_CHECK(addr.valid());
    Entry& e = table_[lsn];
    PPSSD_CHECK_MSG(e.slot == kUnmapped,
                    "mapping an LSN that is already mapped");
    e.slot = pack(addr);
    ++mapped_count_;
  }

  /// Fused lookup-and-clear: unbind `lsn` and return its previous slot in
  /// one table access, or an invalid address when the LSN was unmapped
  /// (never-written LSNs are a legal fast-path case for the write path's
  /// supersede step, so this does not abort like clear()). The LSN's
  /// version is untouched.
  [[nodiscard]] PhysicalAddress take(Lsn lsn) {
    PPSSD_DCHECK(lsn < table_.size());
    Entry& e = table_[lsn];
    const std::uint32_t slot = e.slot;
    if (slot != kUnmapped) {
      e.slot = kUnmapped;
      PPSSD_DCHECK(mapped_count_ > 0);
      --mapped_count_;
    }
    return unpack(slot);
  }

  /// Unbind a mapped logical subpage. The LSN's version is untouched.
  void clear(Lsn lsn) {
    PPSSD_CHECK(lsn < table_.size());
    Entry& e = table_[lsn];
    PPSSD_CHECK_MSG(e.slot != kUnmapped, "clearing an unmapped LSN");
    e.slot = kUnmapped;
    PPSSD_CHECK(mapped_count_ > 0);
    --mapped_count_;
  }

  /// Current stored version of an LSN (0 = never written).
  [[nodiscard]] std::uint32_t version(Lsn lsn) const {
    PPSSD_DCHECK(lsn < table_.size());
    return table_[lsn].version;
  }

  /// Bump and return the LSN's version; the mapping is untouched.
  std::uint32_t bump_version(Lsn lsn) {
    PPSSD_CHECK(lsn < table_.size());
    return ++table_[lsn].version;
  }

  /// Undo one bump_version() whose write did not land.
  void rollback_version(Lsn lsn) {
    PPSSD_CHECK(lsn < table_.size());
    PPSSD_CHECK_MSG(table_[lsn].version > 0,
                    "rolling back an LSN that was never versioned");
    --table_[lsn].version;
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
  /// Slot code of an unmapped LSN.
  static constexpr std::uint32_t kUnmapped =
      std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    std::uint32_t slot = kUnmapped;
    std::uint32_t version = 0;
  };
  static_assert(sizeof(Entry) == 8, "DeviceMap entries should stay 8B");

  [[nodiscard]] std::uint32_t pack(const PhysicalAddress& a) const {
    PPSSD_DCHECK(a.page <= page_mask_ && a.subpage <= sub_mask_);
    return a.block << block_shift_ |
           static_cast<std::uint32_t>(a.page) << sub_bits_ | a.subpage;
  }
  [[nodiscard]] PhysicalAddress unpack(std::uint32_t slot) const {
    if (slot == kUnmapped) return PhysicalAddress{};
    return PhysicalAddress{slot >> block_shift_,
                           static_cast<PageId>(slot >> sub_bits_ & page_mask_),
                           static_cast<SubpageId>(slot & sub_mask_)};
  }

  Row<Entry> table_;
  std::uint64_t mapped_count_ = 0;
  std::uint32_t sub_bits_;
  std::uint32_t block_shift_;
  std::uint32_t page_mask_;
  std::uint32_t sub_mask_;
};

}  // namespace ppssd::ftl
