// Block allocation: per-plane free lists, open (active) blocks, wear-aware
// selection, GC-trigger accounting, and the GC victim index.
//
// Allocation policy follows the paper's Table 2 settings: dynamic page
// allocation striped over planes, "static" wear-levelling realised as
// lowest-erase-count-first free-block selection, and a GC threshold
// expressed as a fraction of each plane's block budget per region.
//
// Open blocks: each plane keeps one append point per SLC level (Work,
// Monitor, Hot) and one for the MLC region. IPU's level-capacity caps
// (CacheConfig::monitor_ratio / hot_ratio) bound how many blocks of a
// plane may carry the Monitor/Hot label; when a cap or the free list is
// exhausted the allocator degrades to the next lower level, as Algorithm 1
// prescribes ("lower level blocks can be instead selected only if no
// available block can be found").
//
// Victim index: every closed in-use block is filed, per (plane, region),
// in (a) a candidate membership bitmap — what for_each_candidate
// iterates, so candidate walks cost O(candidates) instead of
// O(blocks_per_plane) — and (b) an invalid-count bucket bitmap array with
// a max watermark, so the greedy "most invalid subpages, lowest BlockId
// tie-break" victim query is O(1) amortized and the per-invalidation
// bucket move is two word operations. The index learns about
// invalidations through the nand::BlockObserver hook; candidacy
// transitions happen at close / release time inside this class.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/types.h"
#include "nand/flash_array.h"
#include "telemetry/metrics.h"

namespace ppssd::ftl {

struct PageAlloc {
  BlockId block = kInvalidBlock;
  PageId page = kInvalidPage;
  BlockLevel level = BlockLevel::kWork;  // actual level after fallback
};

class BlockManager : private nand::BlockObserver {
 public:
  explicit BlockManager(nand::FlashArray& array);
  ~BlockManager() override;

  BlockManager(const BlockManager&) = delete;
  BlockManager& operator=(const BlockManager&) = delete;

  /// Allocate the next fresh page for (plane, level). SLC levels may
  /// degrade (Hot -> Monitor -> Work) when caps or free blocks run out;
  /// kHighDensity allocates in the MLC region. Returns nullopt only when
  /// the region has neither an open page nor a free block.
  std::optional<PageAlloc> allocate_page(std::uint32_t plane,
                                         BlockLevel level);

  /// Free blocks currently available in the plane's region.
  [[nodiscard]] std::uint32_t free_blocks(std::uint32_t plane,
                                          CellMode mode) const {
    const PlaneState& ps = planes_[plane];
    return static_cast<std::uint32_t>(mode == CellMode::kSlc
                                          ? ps.slc_free.size()
                                          : ps.mlc_free.size());
  }

  /// GC trigger threshold in blocks for one plane's region.
  [[nodiscard]] std::uint32_t gc_threshold_blocks(CellMode mode) const {
    return mode == CellMode::kSlc ? slc_threshold_ : mlc_threshold_;
  }

  /// True when the plane's region is at or below its GC threshold. Backed
  /// by the incrementally maintained pressure bitmask (DESIGN.md §10):
  /// free-list sizes change only at open_block/release_block, so the mask
  /// is updated there instead of recomputed per poll.
  [[nodiscard]] bool needs_gc(std::uint32_t plane, CellMode mode) const {
    return (pressure_[pressure_row(mode)][plane / 64] >> (plane % 64)) & 1;
  }

  /// Smallest plane id >= `from` whose SLC *or* MLC region is under GC
  /// pressure, or kNoPlane when none is. Lets the per-request GC driver
  /// iterate set bits instead of scanning every plane.
  static constexpr std::uint32_t kNoPlane = UINT32_MAX;
  [[nodiscard]] std::uint32_t next_pressured_plane(std::uint32_t from) const {
    const auto& slc = pressure_[0];
    const auto& mlc = pressure_[1];
    const auto nwords = static_cast<std::uint32_t>(slc.size());
    for (std::uint32_t w = from / 64; w < nwords; ++w) {
      std::uint64_t bits = slc[w] | mlc[w];
      if (w == from / 64 && (from % 64) != 0) {
        bits &= ~0ull << (from % 64);
      }
      if (bits != 0) {
        return w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
      }
    }
    return kNoPlane;
  }

  /// True if the block is fully erased and waiting in a free list.
  [[nodiscard]] bool is_free(BlockId b) const { return state_[b] == State::kFree; }
  /// True if the block is an active append point.
  [[nodiscard]] bool is_open(BlockId b) const { return state_[b] == State::kOpen; }
  /// GC victim candidacy: in use and not an append point.
  [[nodiscard]] bool is_candidate(BlockId b) const {
    return state_[b] == State::kUsed;
  }

  /// Invoke fn(block) for every GC candidate of the plane's region, in
  /// ascending BlockId order. O(candidates) via the victim index.
  void for_each_candidate(std::uint32_t plane, CellMode mode,
                          const std::function<void(BlockId)>& fn) const;

  /// The candidate with the most invalid subpages (ties broken by lowest
  /// BlockId), or kInvalidBlock when no candidate has any invalid
  /// subpage. O(1) amortized via the invalid-count bucket index.
  [[nodiscard]] BlockId max_invalid_candidate(std::uint32_t plane,
                                              CellMode mode) const;

  /// Invalid subpages of max_invalid_candidate(plane, mode), 0 when there
  /// is none: the index's exact watermark, read without a bucket scan.
  [[nodiscard]] std::uint32_t max_invalid(std::uint32_t plane,
                                          CellMode mode) const {
    const PlaneState& ps = planes_[plane];
    return (mode == CellMode::kSlc ? ps.slc_victims : ps.mlc_victims)
        .max_invalid;
  }

  /// Return an erased block to its plane's free list. The caller must have
  /// erased it via FlashArray::erase first.
  void release_block(BlockId b);

  /// Number of blocks currently carrying each SLC level label in a plane.
  [[nodiscard]] std::uint32_t level_count(std::uint32_t plane,
                                          BlockLevel level) const;

  [[nodiscard]] std::uint32_t plane_count() const {
    return static_cast<std::uint32_t>(planes_.size());
  }

  /// Total blocks currently carrying a level label across all planes.
  [[nodiscard]] std::uint64_t level_count_total(BlockLevel level) const;
  /// Total free blocks of a region across all planes.
  [[nodiscard]] std::uint64_t free_blocks_total(CellMode mode) const;

  /// Abort on any victim-index inconsistency against a full state scan
  /// (candidate membership, bucket keys, watermark). O(blocks);
  /// test/diagnostic use.
  void check_victim_index() const;

  /// Register pool-transition counters (blocks opened per level, level
  /// fallbacks) and polled pool-size gauges. `labels` identifies the
  /// owning scheme.
  void attach_telemetry(telemetry::MetricsRegistry& registry,
                        const telemetry::Labels& labels);
  /// Drop the counter handles (the registry is going away). The polled
  /// gauges stay registered; they read this manager, not the registry.
  void detach_telemetry() {
    tl_opened_.fill(nullptr);
    tl_level_fallbacks_ = nullptr;
  }

  /// Warm-start checkpointing (DESIGN.md §14). The free heaps are written
  /// as their underlying storage verbatim: heap order among equal erase
  /// counts is history-dependent, so rebuilding them would change warm-path
  /// pop order versus the cold run. The victim indexes, per-block invalid
  /// keys, and GC-pressure bitmasks are canonical functions of (state_,
  /// array) and are rebuilt on restore — which must therefore run *after*
  /// FlashArray::restore on the same device.
  void save(io::StateSink& sink) const;
  void restore(io::StateSource& src);

 private:
  enum class State : std::uint8_t { kFree = 0, kOpen = 1, kUsed = 2 };

  struct FreeEntry {
    std::uint32_t erase_count;
    BlockId block;
    bool operator>(const FreeEntry& o) const {
      return erase_count != o.erase_count ? erase_count > o.erase_count
                                          : block > o.block;
    }
  };
  using FreeHeap =
      std::priority_queue<FreeEntry, std::vector<FreeEntry>, std::greater<>>;

  /// Per-(plane, region) GC candidate index. A region's blocks occupy the
  /// contiguous BlockId range [first, first + slots), so membership is a
  /// bitmap: `members` holds every candidate, `bits` holds one bitmap row
  /// per invalid-subpage count. Bucket moves on the invalidation hot path
  /// are then two word operations, and bit order is BlockId order, so a
  /// first-set-bit scan reproduces the lowest-BlockId tie-break.
  /// `max_invalid` is an exact watermark — the highest non-empty bucket
  /// (0 when empty or when all candidates are fully valid).
  struct VictimIndex {
    BlockId first = 0;        // region's first BlockId
    std::uint32_t slots = 0;  // blocks in the region
    std::uint32_t words = 0;  // 64-bit words per bitmap row
    std::vector<std::uint64_t> members;  // candidate membership
    std::vector<std::uint64_t> bits;     // buckets × words, row-major
    std::vector<std::uint32_t> counts;   // population per bucket
    std::uint32_t candidates = 0;
    std::uint32_t max_invalid = 0;

    void init(BlockId first_block, std::uint32_t block_count,
              std::uint32_t bucket_count) {
      first = first_block;
      slots = block_count;
      words = (block_count + 63) / 64;
      members.assign(words, 0);
      bits.assign(static_cast<std::size_t>(bucket_count) * words, 0);
      counts.assign(bucket_count, 0);
    }
    [[nodiscard]] std::uint64_t* row(std::uint32_t key) {
      return bits.data() + static_cast<std::size_t>(key) * words;
    }
    [[nodiscard]] const std::uint64_t* row(std::uint32_t key) const {
      return bits.data() + static_cast<std::size_t>(key) * words;
    }
  };

  struct PlaneState {
    FreeHeap slc_free;
    FreeHeap mlc_free;
    VictimIndex slc_victims;
    VictimIndex mlc_victims;
    // Open block per SLC level (index by BlockLevel value; 0 = MLC open).
    std::array<BlockId, 4> open{kInvalidBlock, kInvalidBlock, kInvalidBlock,
                                kInvalidBlock};
    std::array<std::uint32_t, 4> level_counts{};  // labelled blocks per level
  };

  /// Open a fresh block for (plane, level); returns false when impossible.
  bool open_block(std::uint32_t plane, BlockLevel level);
  /// Retire the plane's open block for a level (it became full) into the
  /// victim index.
  void close_open(std::uint32_t plane, BlockLevel level);

  [[nodiscard]] std::uint32_t level_cap(BlockLevel level) const;

  [[nodiscard]] VictimIndex& victim_index(BlockId b) {
    return *index_by_block_[b];
  }
  [[nodiscard]] const VictimIndex& victim_index(std::uint32_t plane,
                                                CellMode mode) const;

  static constexpr std::size_t pressure_row(CellMode mode) {
    return mode == CellMode::kSlc ? 0 : 1;
  }

  /// Recompute one plane/region pressure bit. Called at every free-list
  /// size transition (open_block pop, release_block push, construction).
  void update_pressure(std::uint32_t plane, CellMode mode) {
    auto& words = pressure_[pressure_row(mode)];
    const std::uint64_t mask = 1ull << (plane % 64);
    if (free_blocks(plane, mode) <= gc_threshold_blocks(mode)) {
      words[plane / 64] |= mask;
    } else {
      words[plane / 64] &= ~mask;
    }
  }

  /// File a newly closed block under its current invalid count.
  void index_insert(BlockId b);
  /// Remove a candidate filed under `indexed_invalid_[b]`.
  void index_erase(BlockId b);

  /// nand::BlockObserver — an invalidation moves a filed candidate one
  /// bucket up; invalidations of open/free blocks are intentionally
  /// ignored (the count is captured when the block closes).
  void on_subpage_invalidated(BlockId b, std::uint32_t invalid) override;

  nand::FlashArray* array_;
  std::vector<PlaneState> planes_;
  std::vector<State> state_;
  /// Invalid count each kUsed block is currently filed under (stable even
  /// while the underlying block is concurrently erased, until release).
  std::vector<std::uint32_t> indexed_invalid_;
  /// Per-block victim-index pointer (plane_of division + mode branch
  /// precomputed once; PlaneState storage is stable after construction).
  std::vector<VictimIndex*> index_by_block_;
  /// GC-pressure bitmasks, one bit per plane, per region
  /// (pressure_row(mode)). Invariant: bit (plane) is set iff
  /// free_blocks(plane, mode) <= gc_threshold_blocks(mode); audited by
  /// check_victim_index().
  std::array<std::vector<std::uint64_t>, 2> pressure_;
  std::uint32_t slc_threshold_;
  std::uint32_t mlc_threshold_;
  std::uint32_t monitor_cap_;
  std::uint32_t hot_cap_;
  // Telemetry handles (null until attached): blocks opened per level and
  // allocations degraded to a lower level.
  std::array<telemetry::Counter*, 4> tl_opened_{};
  telemetry::Counter* tl_level_fallbacks_ = nullptr;
};

}  // namespace ppssd::ftl
