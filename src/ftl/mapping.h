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
// Each LSN's entry is one 32-bit word, [version | block | page | subpage]
// from the top: the slot code packs block, page and subpage with widths
// derived from the geometry (GeometryConfig::slot_block_bits/
// slot_page_bits/slot_subpage_bits), and the LSN's version takes the
// bits above it (SsdConfig::validate leaves it at least one). The version
// is kept here only: the flash array stores none. A version at or above
// the field's cap stores the cap, and its full value sits in a small
// overflow table keyed by LSN.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/row_alloc.h"
#include "common/state_io.h"
#include "common/types.h"

namespace ppssd::ftl {

class DeviceMap {
 public:
  /// One LSN's entry: its version field above its slot code.
  using Entry = std::uint32_t;
  static_assert(sizeof(Entry) == 4, "DeviceMap entries should stay 4B");

  /// A mapped LSN's slot and version (an invalid address and version 0
  /// when unmapped).
  struct Mapping {
    PhysicalAddress addr;
    std::uint32_t version = 0;
  };

  /// `block_bits`/`page_bits`/`subpage_bits` are the slot code's field
  /// widths: enough bits for the largest block, page and subpage index of
  /// the geometry. At least one bit must be left for the version.
  DeviceMap(std::uint64_t logical_subpages, std::uint32_t block_bits,
            std::uint32_t page_bits, std::uint32_t subpage_bits)
      : table_(logical_subpages),
        sub_bits_(subpage_bits),
        block_shift_(page_bits + subpage_bits),
        code_bits_(block_bits + page_bits + subpage_bits),
        block_mask_(mask(block_bits)),
        page_mask_(mask(page_bits)),
        sub_mask_(mask(subpage_bits)),
        cap_(code_bits_ < 32 ? mask(32 - code_bits_) - 1 : 0) {
    PPSSD_CHECK_MSG(code_bits_ < 32, "slot code leaves no version bit");
    // Rows are born zero; an unmapped entry is all ones.
    std::fill(table_.begin(), table_.end(), kUnmapped);
  }

  [[nodiscard]] std::uint64_t logical_subpages() const {
    return table_.size();
  }

  /// The version field's cap: a version at or above it is kept in the
  /// overflow table (2^version-bits - 2, so a mapped entry is never
  /// all-ones).
  [[nodiscard]] std::uint32_t version_cap() const { return cap_; }

  /// Number of LSNs whose version is at or above the cap.
  [[nodiscard]] std::size_t overflow_count() const {
    return overflow_.size();
  }

  /// Physical location of a logical subpage (invalid when unmapped).
  [[nodiscard]] PhysicalAddress lookup(Lsn lsn) const {
    PPSSD_DCHECK(lsn < table_.size());
    return unpack(table_[lsn]);
  }

  /// Version of a logical subpage's mapped copy (0 when unmapped).
  [[nodiscard]] std::uint32_t version(Lsn lsn) const {
    PPSSD_DCHECK(lsn < table_.size());
    const Entry e = table_[lsn];
    return e == kUnmapped ? 0 : version_of(lsn, e);
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

  /// Bind a logical subpage to a slot at `version` (>= 1). The LSN must
  /// currently be unmapped (supersede via take()/clear() first) — this
  /// keeps every transition explicit.
  void set(Lsn lsn, const PhysicalAddress& addr, std::uint32_t version) {
    PPSSD_CHECK(lsn < table_.size());
    PPSSD_CHECK(addr.valid());
    PPSSD_DCHECK(version > 0);
    Entry& e = table_[lsn];
    PPSSD_CHECK_MSG(e == kUnmapped, "mapping an LSN that is already mapped");
    std::uint32_t field = version;
    if (version >= cap_) {
      field = cap_;
      overflow_.put(static_cast<std::uint32_t>(lsn), version);
    }
    e = field << code_bits_ | pack(addr);
    ++mapped_count_;
  }

  /// Bind the `n` consecutive LSNs from `first` to slots [0, n) of page
  /// (`block`, `page`), all at `version` (>= 1): the bulk form of set()
  /// (Scheme::prefill_mlc writes one run per filled page). One range
  /// check covers the run, and one check that all `n` LSNs were unmapped.
  void set_run(Lsn first, BlockId block, PageId page, std::uint32_t n,
               std::uint32_t version) {
    PPSSD_CHECK(first <= table_.size() && n <= table_.size() - first);
    PPSSD_CHECK(block != kInvalidBlock);
    PPSSD_DCHECK(version > 0 && n > 0 && n - 1 <= sub_mask_);
    Entry* const run = table_.data() + first;
    // An unmapped entry is all ones, so the AND of the run is all ones
    // exactly when every LSN of it is unmapped.
    Entry unmapped = kUnmapped;
    for (std::uint32_t i = 0; i < n; ++i) unmapped &= run[i];
    PPSSD_CHECK_MSG(unmapped == kUnmapped,
                    "mapping an LSN that is already mapped");
    const std::uint32_t field = std::min(version, cap_);
    const Entry head =
        field << code_bits_ | pack(PhysicalAddress{block, page, 0});
    for (std::uint32_t i = 0; i < n; ++i) run[i] = head | i;
    if (version >= cap_) {
      for (std::uint32_t i = 0; i < n; ++i) {
        overflow_.put(static_cast<std::uint32_t>(first + i), version);
      }
    }
    mapped_count_ += n;
  }

  /// Fused lookup-and-clear: unbind `lsn` and return its previous slot and
  /// version in one table access, or an invalid address and version 0
  /// when the LSN was unmapped (never-written LSNs are a legal fast-path
  /// case for the write path's supersede step, so this does not abort
  /// like clear()).
  [[nodiscard]] Mapping take(Lsn lsn) {
    PPSSD_DCHECK(lsn < table_.size());
    Entry& e = table_[lsn];
    const Entry old = e;
    if (old == kUnmapped) return {};
    e = kUnmapped;
    PPSSD_DCHECK(mapped_count_ > 0);
    --mapped_count_;
    return {unpack(old), retire_version(lsn, old)};
  }

  /// Unbind a mapped logical subpage and return its version.
  std::uint32_t clear(Lsn lsn) {
    PPSSD_CHECK(lsn < table_.size());
    Entry& e = table_[lsn];
    const Entry old = e;
    PPSSD_CHECK_MSG(old != kUnmapped, "clearing an unmapped LSN");
    e = kUnmapped;
    PPSSD_CHECK(mapped_count_ > 0);
    --mapped_count_;
    return retire_version(lsn, old);
  }

  /// Number of currently mapped logical subpages.
  [[nodiscard]] std::uint64_t mapped_count() const { return mapped_count_; }

  /// Abort unless the overflow table mirrors the saturated entries: an
  /// entry is saturated exactly when its LSN has an overflow entry, and
  /// every overflow LSN is mapped with a version at or above the cap.
  /// O(LSNs); test/diagnostic use (Scheme::check_consistency).
  void check_versions() const {
    const char* const fault = overflow_fault(saturated_count());
    PPSSD_CHECK_MSG(fault == nullptr, fault);
  }

  /// Warm-start checkpointing (DESIGN.md §14). The map section is the
  /// entry row as it stands (u64 count, then the 4-byte entries), the u64
  /// mapped count, then the overflow table as a u64 count and (u32 LSN,
  /// u32 version) pairs sorted by LSN, so equal maps save equal bytes.
  void save(io::StateSink& sink) const {
    sink.vec(table_);
    sink.u64(mapped_count_);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    pairs.reserve(overflow_.size());
    overflow_.for_each([&](std::uint32_t lsn, std::uint32_t version) {
      pairs.emplace_back(lsn, version);
    });
    std::sort(pairs.begin(), pairs.end());
    sink.u64(pairs.size());
    for (const auto& [lsn, version] : pairs) {
      sink.u32(lsn);
      sink.u32(version);
    }
  }

  /// Inverse of save(), into a map of the same widths and size: one copy
  /// of the entry row, one sequential range-check pass over it and one
  /// pass over the overflow pairs. Aborts, with one message each, when
  /// the stream does not match the shape, when a mapped entry names a
  /// slot outside the array (block b has `block_pages[b]` pages and every
  /// page `spp` subpages), when the stored mapped count disagrees with
  /// the entries, or when the overflow pairs are unsorted, repeat an LSN
  /// or do not mirror the saturated entries.
  void restore(io::StateSource& src, std::span<const std::uint32_t> block_pages,
               std::uint32_t spp) {
    (void)src.vec_into(table_);
    const std::uint64_t mapped = src.u64();
    PPSSD_CHECK_MSG(src.ok(),
                    "warm-start checkpoint does not match mapping shape");
    // Page counts for every value the block field can hold: 0 past the
    // last block, so a code naming one fails the page bound.
    std::vector<std::uint32_t> pages(std::size_t{block_mask_} + 1, 0);
    std::copy_n(block_pages.begin(), std::min(block_pages.size(), pages.size()),
                pages.begin());
    std::uint64_t count = 0;
    std::uint64_t saturated = 0;
    std::uint32_t outside = 0;
    for (const Entry e : table_) {
      const std::uint32_t in_use = e != kUnmapped;
      count += in_use;
      saturated += in_use & (e >> code_bits_ == cap_);
      const std::uint32_t page = e >> sub_bits_ & page_mask_;
      outside |= in_use & ((page >= pages[e >> block_shift_ & block_mask_]) |
                           ((e & sub_mask_) >= spp));
    }
    PPSSD_CHECK_MSG(outside == 0,
                    "warm-start checkpoint map code outside the array");
    PPSSD_CHECK_MSG(count == mapped,
                    "warm-start checkpoint mapped count disagrees with the "
                    "map entries");
    mapped_count_ = mapped;

    const std::uint64_t n = src.u64();
    const std::uint8_t* const pairs =
        n <= table_.size() ? src.bytes(8 * n) : nullptr;
    PPSSD_CHECK_MSG(pairs != nullptr, "warm-start checkpoint truncated");
    overflow_ = Overflow{};
    overflow_.reserve(n);
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint32_t pair[2];
      std::memcpy(pair, pairs + 8 * i, sizeof pair);
      PPSSD_CHECK_MSG(i == 0 || pair[0] != prev,
                      "warm-start checkpoint version overflow table repeats "
                      "an LSN");
      PPSSD_CHECK_MSG(i == 0 || pair[0] > prev,
                      "warm-start checkpoint version overflow table is not "
                      "sorted by LSN");
      PPSSD_CHECK_MSG(pair[0] < table_.size(),
                      "map version overflow entry for an unmapped LSN");
      overflow_.put(pair[0], pair[1]);
      prev = pair[0];
    }
    const char* const fault = overflow_fault(saturated);
    PPSSD_CHECK_MSG(fault == nullptr, fault);
  }

 private:
  /// LSN -> full version of the saturated entries: open addressing with
  /// linear probing over a power-of-two table kept at most half full, so
  /// a lookup is one short probe run and only a growth allocates.
  class Overflow {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }

    /// The version stored for `lsn`, which must be present.
    [[nodiscard]] std::uint32_t get(std::uint32_t lsn) const {
      const Cell* const c = find(lsn);
      PPSSD_CHECK_MSG(c != nullptr, "saturated map entry has no overflow "
                                    "entry");
      return c->version;
    }

    /// Insert or overwrite `lsn`'s version.
    void put(std::uint32_t lsn, std::uint32_t version) {
      if (2 * (size_ + 1) > cells_.size()) grow();
      std::size_t i = home(lsn);
      for (; cells_[i].lsn != kEmpty; i = next(i)) {
        if (cells_[i].lsn == lsn) {
          cells_[i].version = version;
          return;
        }
      }
      cells_[i] = Cell{lsn, version};
      ++size_;
    }

    /// Remove `lsn`, which must be present, and return its version. The
    /// run behind it shifts back, so no tombstones build up.
    std::uint32_t take(std::uint32_t lsn) {
      const Cell* const c = find(lsn);
      PPSSD_CHECK_MSG(c != nullptr,
                      "saturated map entry has no overflow entry");
      auto i = static_cast<std::size_t>(c - cells_.data());
      const std::uint32_t version = c->version;
      for (std::size_t j = next(i); cells_[j].lsn != kEmpty; j = next(j)) {
        // Cell j may fill the hole at i when i lies on its probe path.
        if (distance(home(cells_[j].lsn), j) >= distance(i, j)) {
          cells_[i] = cells_[j];
          i = j;
        }
      }
      cells_[i] = Cell{};
      --size_;
      return version;
    }

    /// Room for `n` entries without a growth.
    void reserve(std::uint64_t n) {
      while (2 * n > cells_.size()) grow();
    }

    template <typename F>
    void for_each(F&& f) const {
      for (const Cell& c : cells_) {
        if (c.lsn != kEmpty) f(c.lsn, c.version);
      }
    }

   private:
    /// LSNs fit 30 bits (kSlotOwnerBits), so all-ones marks a free cell.
    static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
    struct Cell {
      std::uint32_t lsn = kEmpty;
      std::uint32_t version = 0;
    };

    [[nodiscard]] const Cell* find(std::uint32_t lsn) const {
      if (cells_.empty()) return nullptr;
      for (std::size_t i = home(lsn); cells_[i].lsn != kEmpty; i = next(i)) {
        if (cells_[i].lsn == lsn) return &cells_[i];
      }
      return nullptr;
    }
    /// Fibonacci hash of `lsn` onto the table's index bits.
    [[nodiscard]] std::size_t home(std::uint32_t lsn) const {
      return static_cast<std::size_t>((lsn * 0x9E3779B97F4A7C15ull) >>
                                      shift_);
    }
    [[nodiscard]] std::size_t next(std::size_t i) const {
      return (i + 1) & (cells_.size() - 1);
    }
    /// Probe steps from cell `from` forward to cell `to`.
    [[nodiscard]] std::size_t distance(std::size_t from, std::size_t to) const {
      return (to - from) & (cells_.size() - 1);
    }
    void grow() {
      std::vector<Cell> old = std::move(cells_);
      const std::size_t n = old.empty() ? 16 : 2 * old.size();
      cells_.assign(n, Cell{});
      shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(n));
      size_ = 0;
      for (const Cell& c : old) {
        if (c.lsn != kEmpty) put(c.lsn, c.version);
      }
    }

    std::vector<Cell> cells_;
    std::size_t size_ = 0;
    std::uint32_t shift_ = 64;
  };

  /// Slot code of an unmapped LSN.
  static constexpr Entry kUnmapped = std::numeric_limits<Entry>::max();

  static constexpr std::uint32_t mask(std::uint32_t bits) {
    return bits >= 32 ? 0xFFFFFFFFu : (std::uint32_t{1} << bits) - 1;
  }

  [[nodiscard]] std::uint32_t pack(const PhysicalAddress& a) const {
    PPSSD_DCHECK(a.block <= block_mask_ && a.page <= page_mask_ &&
                 a.subpage <= sub_mask_);
    return a.block << block_shift_ |
           static_cast<std::uint32_t>(a.page) << sub_bits_ | a.subpage;
  }
  [[nodiscard]] PhysicalAddress unpack(Entry e) const {
    if (e == kUnmapped) return PhysicalAddress{};
    return PhysicalAddress{e >> block_shift_ & block_mask_,
                           static_cast<PageId>(e >> sub_bits_ & page_mask_),
                           static_cast<SubpageId>(e & sub_mask_)};
  }

  /// Version of mapped entry `e` of `lsn`.
  [[nodiscard]] std::uint32_t version_of(Lsn lsn, Entry e) const {
    const std::uint32_t field = e >> code_bits_;
    return field < cap_ ? field
                        : overflow_.get(static_cast<std::uint32_t>(lsn));
  }
  /// Version of the entry `e` of `lsn` just unmapped; a saturated one
  /// leaves the overflow table.
  std::uint32_t retire_version(Lsn lsn, Entry e) {
    const std::uint32_t field = e >> code_bits_;
    return field < cap_ ? field
                        : overflow_.take(static_cast<std::uint32_t>(lsn));
  }

  [[nodiscard]] std::uint64_t saturated_count() const {
    std::uint64_t n = 0;
    for (const Entry e : table_) {
      n += e != kUnmapped && e >> code_bits_ == cap_;
    }
    return n;
  }

  /// The first way the overflow table fails to mirror the `saturated`
  /// saturated entries, or nullptr.
  [[nodiscard]] const char* overflow_fault(std::uint64_t saturated) const {
    const char* fault = nullptr;
    overflow_.for_each([&](std::uint32_t lsn, std::uint32_t version) {
      if (fault != nullptr) return;
      if (lsn >= table_.size() || table_[lsn] == kUnmapped) {
        fault = "map version overflow entry for an unmapped LSN";
      } else if (version < cap_) {
        fault = "map version overflow entry below the version cap";
      } else if (table_[lsn] >> code_bits_ != cap_) {
        fault = "map version overflow entry for an unsaturated entry";
      }
    });
    if (fault == nullptr && saturated != overflow_.size()) {
      fault = "saturated map entry has no overflow entry";
    }
    return fault;
  }

  Row<Entry> table_;
  Overflow overflow_;
  std::uint64_t mapped_count_ = 0;
  std::uint32_t sub_bits_;
  std::uint32_t block_shift_;
  std::uint32_t code_bits_;
  std::uint32_t block_mask_;
  std::uint32_t page_mask_;
  std::uint32_t sub_mask_;
  std::uint32_t cap_;
};

}  // namespace ppssd::ftl
