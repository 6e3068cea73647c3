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
// Each LSN's entry is one 32-bit slot code; the LSN's version is a
// property of the stored data and lives only in the slot it names
// (FlashArray's version row). The slot code packs block, page and
// subpage with widths derived from the geometry
// (GeometryConfig::slot_page_bits/slot_subpage_bits); SsdConfig::validate
// rejects a device whose block ids do not fit the bits above them.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>

#include "common/check.h"
#include "common/row_alloc.h"
#include "common/state_io.h"
#include "common/types.h"

namespace ppssd::ftl {

class DeviceMap {
 public:
  /// One LSN's entry: its slot code.
  using Entry = std::uint32_t;
  static_assert(sizeof(Entry) == 4, "DeviceMap entries should stay 4B");

  /// `page_bits`/`subpage_bits` are the slot code's field widths: enough
  /// bits for the largest page and subpage index of the geometry.
  DeviceMap(std::uint64_t logical_subpages, std::uint32_t page_bits,
            std::uint32_t subpage_bits)
      : table_(logical_subpages, kUnmapped),
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
    return unpack(table_[lsn]);
  }

  /// Cache hint for `lsn`'s entry, ahead of a lookup (DESIGN.md §10,
  /// "Request lookahead"). Changes no state.
  void prefetch(Lsn lsn) const {
    PPSSD_DCHECK(lsn < table_.size());
    __builtin_prefetch(table_.data() + lsn);
  }

  [[nodiscard]] bool mapped(Lsn lsn) const {
    return table_[lsn] != kUnmapped;
  }

  /// Bind a logical subpage to a slot. The LSN must currently be unmapped
  /// (supersede via clear() first) — this keeps every transition explicit.
  void set(Lsn lsn, const PhysicalAddress& addr) {
    PPSSD_CHECK(lsn < table_.size());
    PPSSD_CHECK(addr.valid());
    Entry& e = table_[lsn];
    PPSSD_CHECK_MSG(e == kUnmapped, "mapping an LSN that is already mapped");
    e = pack(addr);
    ++mapped_count_;
  }

  /// Fused lookup-and-clear: unbind `lsn` and return its previous slot in
  /// one table access, or an invalid address when the LSN was unmapped
  /// (never-written LSNs are a legal fast-path case for the write path's
  /// supersede step, so this does not abort like clear()).
  [[nodiscard]] PhysicalAddress take(Lsn lsn) {
    PPSSD_DCHECK(lsn < table_.size());
    Entry& e = table_[lsn];
    const std::uint32_t slot = e;
    if (slot != kUnmapped) {
      e = kUnmapped;
      PPSSD_DCHECK(mapped_count_ > 0);
      --mapped_count_;
    }
    return unpack(slot);
  }

  /// Unbind a mapped logical subpage.
  void clear(Lsn lsn) {
    PPSSD_CHECK(lsn < table_.size());
    Entry& e = table_[lsn];
    PPSSD_CHECK_MSG(e != kUnmapped, "clearing an unmapped LSN");
    e = kUnmapped;
    PPSSD_CHECK(mapped_count_ > 0);
    --mapped_count_;
  }

  /// Number of currently mapped logical subpages.
  [[nodiscard]] std::uint64_t mapped_count() const { return mapped_count_; }

  /// Warm-start checkpointing (DESIGN.md §14). The map section keeps the
  /// bytes of the former (slot code, version) entry: a u64 entry count,
  /// then per LSN its u32 slot code and u32 version, then the u64 mapped
  /// count. `version_at(addr)` returns the version stored in slot `addr`;
  /// save gathers an unmapped LSN's version as 0.
  template <typename VersionAt>
  void save(io::StateSink& sink, VersionAt&& version_at) const {
    sink.u64(table_.size());
    constexpr std::size_t kChunk = 4096;
    std::array<std::uint32_t, 2 * kChunk> chunk;
    for (std::size_t lsn = 0; lsn < table_.size();) {
      const std::size_t n = std::min(kChunk, table_.size() - lsn);
      for (std::size_t k = 0; k < n; ++k, ++lsn) {
        const std::uint32_t slot = table_[lsn];
        chunk[2 * k] = slot;
        chunk[2 * k + 1] = slot == kUnmapped ? 0 : version_at(unpack(slot));
      }
      sink.items(std::span<const std::uint32_t>(chunk.data(), 2 * n));
    }
    sink.u64(mapped_count_);
  }

  /// Inverse of save(), into a map of the same size. Aborts when the
  /// stream does not match the shape, or when an entry's version is not
  /// the one stored in its slot (`version_at` of an address outside the
  /// array must return 0) or an unmapped entry's version is not 0.
  /// `prefetch_at(addr)` hints slot `addr`'s stored version (it must
  /// ignore an address outside the array); restore calls it
  /// kRestoreAhead entries ahead of each check, whose loads are scattered
  /// over the array (consecutive LSN pages sit on different planes).
  template <typename VersionAt, typename PrefetchAt>
  void restore(io::StateSource& src, VersionAt&& version_at,
               PrefetchAt&& prefetch_at) {
    const std::uint64_t n = src.u64();
    bool agree = true;
    const std::uint8_t* const pairs =
        n == table_.size() ? src.bytes(8 * n) : nullptr;
    if (pairs != nullptr) {
      const auto word = [&](std::size_t i) {
        std::uint32_t v = 0;
        std::memcpy(&v, pairs + 4 * i, sizeof v);
        return v;
      };
      const auto hint = [&](std::size_t lsn) {
        const std::uint32_t slot = word(2 * lsn);
        if (slot != kUnmapped) prefetch_at(unpack(slot));
      };
      for (std::size_t lsn = 0; lsn < std::min(kRestoreAhead, n); ++lsn) {
        hint(lsn);
      }
      for (std::size_t lsn = 0; lsn < n; ++lsn) {
        if (lsn + kRestoreAhead < n) hint(lsn + kRestoreAhead);
        const std::uint32_t slot = word(2 * lsn);
        const std::uint32_t version = word(2 * lsn + 1);
        table_[lsn] = slot;
        agree &= slot == kUnmapped
                     ? version == 0
                     : version != 0 && version == version_at(unpack(slot));
      }
    }
    const std::uint64_t mapped = src.u64();
    PPSSD_CHECK_MSG(src.ok() && n == table_.size(),
                    "warm-start checkpoint does not match mapping shape");
    PPSSD_CHECK_MSG(agree,
                    "warm-start checkpoint map disagrees with the versions "
                    "stored in its slots");
    mapped_count_ = mapped;
  }

 private:
  /// How many entries ahead of its version check restore() hints a slot.
  static constexpr std::size_t kRestoreAhead = 16;

  /// Slot code of an unmapped LSN.
  static constexpr Entry kUnmapped = std::numeric_limits<Entry>::max();

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
