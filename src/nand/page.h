// Page metadata and subpage value types.
//
// A 16 KiB page holds four 4 KiB subpages — the partial-programming unit.
// Each program operation writes one or more subpage slots of a page; the
// first program of a page is "conventional", every later one is a partial
// program (Figure 1). Only SLC-mode pages take partial programs: an MLC
// page takes one program per erase. Disturb bookkeeping is snapshot-based:
// every subpage remembers how many program operations and
// neighbouring-page programs the page had seen when the subpage was
// written, so the disturb *it* has absorbed since is a subtraction, not a
// per-event fan-out. An MLC subpage's snapshots are both 0 (its page's one
// program saw neither), so only SLC-mode subpages store them.
//
// Storage layout (DESIGN.md §10, §14): every slot's state and owner share
// one 4-byte `SlotRecord` in FlashArray's slot row, so a supersede or a GC
// scan loads one line per slot. The array stores no version: an LSN's
// version lives in its ftl::DeviceMap entry. The write time and the two
// snapshots have SLC-only rows. `Subpage` survives as the *value*
// type those rows gather into (accessors, tests, BER snapshots). `Page`
// keeps only the per-page counters the disturb model subtracts against,
// one 2-byte entry per page in FlashArray's flat page row.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/config.h"
#include "common/types.h"

namespace ppssd::nand {

enum class SubpageState : std::uint8_t {
  kFree = 0,
  kValid = 1,
  kInvalid = 2,
};

/// One 4 KiB subpage slot, materialized from FlashArray's slot rows.
struct Subpage {
  /// Logical subpage stored here (valid only when state == kValid).
  std::uint32_t owner_lsn = 0;
  /// Wall-clock (sim) write time, milliseconds. Used by the IS' age model;
  /// kept for SLC-mode slots only (0 for an MLC slot).
  std::uint32_t write_time_ms = 0;
  SubpageState state = SubpageState::kFree;
  /// Page program-op count when this subpage was written.
  std::uint8_t programs_before = 0;
  /// Page neighbour-program count when this subpage was written.
  std::uint16_t neighbors_before = 0;

  bool operator==(const Subpage&) const = default;
};

/// Maximum subpages per page supported without heap allocation
/// (SsdConfig::validate enforces it).
using ppssd::kMaxSubpagesPerPage;

/// One subpage slot's stored fields, packed into one 32-bit word: the
/// owner LSN in its low kSlotOwnerBits bits and the SubpageState in the
/// top two. A free slot is all zero: the constructor and erase leave it
/// so, and restore rejects a checkpoint that says otherwise.
class SlotRecord {
 public:
  static constexpr std::uint32_t kOwnerMask =
      (std::uint32_t{1} << kSlotOwnerBits) - 1;

  /// A free slot.
  SlotRecord() = default;
  /// `owner` must fit kOwnerMask.
  SlotRecord(SubpageState st, std::uint32_t owner)
      : word_(static_cast<std::uint32_t>(st) << kSlotOwnerBits | owner) {}

  [[nodiscard]] SubpageState state() const {
    return static_cast<SubpageState>(word_ >> kSlotOwnerBits);
  }
  [[nodiscard]] bool is_free() const { return word_ <= kOwnerMask; }
  [[nodiscard]] std::uint32_t owner() const { return word_ & kOwnerMask; }

  /// Set the state, keeping the owner.
  void set_state(SubpageState st) {
    word_ = (word_ & kOwnerMask) |
            static_cast<std::uint32_t>(st) << kSlotOwnerBits;
  }

 private:
  std::uint32_t word_ = 0;
};
static_assert(sizeof(SlotRecord) == 4, "SlotRecord sets the slot row's size");

/// One subpage slot to fill in a program operation.
struct SlotWrite {
  SubpageId slot = 0;
  Lsn lsn = kInvalidLsn;
};

/// Per-page counters, stored in FlashArray's flat page row. Subpage slot
/// contents live in the slot row; what remains here is the page-granular
/// state the disturb subtractions and the hot/cold split (page_updated)
/// read.
///
/// The fields are as wide as their bounds: every program fills at least
/// one free slot and a slot is written once per erase, so a page takes at
/// most spp <= kMaxSubpagesPerPage programs (7 bits), and the neighbour
/// count, fed by the two adjacent pages' programs, stays at most
/// 2 * kMaxSubpagesPerPage (8 bits). The two bytes are the checkpoint's
/// page row as they stand: byte 0 is the neighbour count, byte 1 the
/// program count in its low 7 bits and the reprogrammed mark in bit 7.
class Page {
 public:
  /// Most neighbour programs a page can absorb: both adjacent pages at
  /// kMaxSubpagesPerPage programs.
  static constexpr std::uint32_t kMaxNeighborPrograms =
      2 * kMaxSubpagesPerPage;

  /// Byte-1 mask of the program count and bit of the reprogrammed mark.
  static constexpr std::uint8_t kProgramOpsMask = 0x7F;
  static constexpr std::uint8_t kReprogrammedBit = 0x80;

  /// Number of program operations applied since the last erase.
  [[nodiscard]] std::uint8_t program_ops() const {
    return ops_ & kProgramOpsMask;
  }
  /// True if at least one program has been applied (page not fully free).
  [[nodiscard]] bool programmed() const { return program_ops() > 0; }
  /// Number of programs on wordline-adjacent pages since this page's erase.
  [[nodiscard]] std::uint8_t neighbor_programs() const {
    return neighbor_programs_;
  }

  /// True when this page's data was produced by an in-place reprogram
  /// (ISPP continuation from SLC frontier state, IPS promotion) rather
  /// than a fresh program. Reprogrammed cells carry a retention/disturb
  /// BER penalty; cleared by erase.
  [[nodiscard]] bool reprogrammed() const {
    return (ops_ & kReprogrammedBit) != 0;
  }

  /// Called when a wordline-adjacent page is programmed.
  void absorb_neighbor_program() {
    PPSSD_DCHECK(neighbor_programs_ < kMaxNeighborPrograms);
    ++neighbor_programs_;
  }

 private:
  /// The fused array-level paths stamp page counters directly (one pass
  /// over the touched slots instead of one per layer); so do their
  /// test-only layer-by-layer oracles.
  friend class FlashArray;
  friend struct ReferencePaths;

  /// Set the program count, keeping the reprogrammed mark.
  void set_program_ops(std::uint32_t n) {
    ops_ = static_cast<std::uint8_t>((ops_ & kReprogrammedBit) | n);
  }
  void mark_reprogrammed() { ops_ |= kReprogrammedBit; }

  // Two bytes, so the flat page row packs 32 pages per cache line.
  std::uint8_t neighbor_programs_ = 0;
  std::uint8_t ops_ = 0;
};
static_assert(sizeof(Page) == 2, "Page sets the flat page row's density");

}  // namespace ppssd::nand
