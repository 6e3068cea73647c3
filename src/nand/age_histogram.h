// Age-bucket histogram of subpage write times: the per-block state that
// the ISR victim score (ftl::IsrPolicy, Eq. 2) folds over. Only SLC-mode
// cache blocks carry one — ISR is the SLC policy and MLC GC is greedy —
// so FlashArray keeps the histograms in a side row indexed from the
// block (DESIGN.md §9, "Age-bucket histogram").
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/check.h"
#include "common/state_io.h"

namespace ppssd::nand {

/// Log-spaced histogram of subpage write times (milliseconds). Write
/// times are bucketed by their offset from a per-block base — the owning
/// block's last erase time — so resolution tracks the block's own fill
/// window instead of absolute sim time: bucket k holds offsets with
/// bit-width k (i.e. [2^(k-1), 2^k); bucket 0 is offset 0). Each bucket
/// keeps the exact count and absolute write-time sum, so an age-weighted
/// fold evaluates its kernel once per bucket at the bucket's true mean
/// write time instead of once per subpage. Each octave is split into
/// 2^kSubBits linear sub-buckets (HDR-histogram style), so the bucket
/// width — the kernel's within-bucket error bound — is at most 1/8 of the
/// subpage's time-since-erase.
class AgeHistogram {
 public:
  /// Linear sub-buckets per octave: 2^kSubBits.
  static constexpr std::uint32_t kSubBits = 2;
  /// 33 possible bit-widths of a 32-bit offset, each split in sub-buckets
  /// (small offsets with fewer than kSubBits significant bits collapse
  /// into their octave's first sub-buckets, which are then exact).
  static constexpr std::uint32_t kBuckets = 33u << kSubBits;

  [[nodiscard]] std::uint32_t bucket_of(std::uint32_t wt_ms) const {
    const std::uint32_t offset = wt_ms - base_ms_;
    const auto bw = static_cast<std::uint32_t>(std::bit_width(offset));
    // Sub-bucket index: the kSubBits bits below the leading bit.
    const std::uint32_t sub =
        bw > kSubBits ? (offset >> (bw - 1 - kSubBits)) & ((1u << kSubBits) - 1)
                      : offset;
    return (bw << kSubBits) | sub;
  }

  void add(std::uint32_t wt_ms, std::uint32_t n = 1) {
    const std::uint32_t b = bucket_of(wt_ms);
    count_[b] += n;
    sum_[b] += static_cast<std::uint64_t>(wt_ms) * n;
    total_ += n;
    occupied_[b / 64] |= 1ull << (b % 64);
  }

  void remove(std::uint32_t wt_ms) {
    const std::uint32_t b = bucket_of(wt_ms);
    count_[b] -= 1;
    sum_[b] -= wt_ms;
    total_ -= 1;
    if (count_[b] == 0) occupied_[b / 64] &= ~(1ull << (b % 64));
  }

  /// Empty the histogram and rebase it. Every subsequent add/remove must
  /// carry a write time >= base_ms (writes follow the erase that sets it).
  void clear(std::uint32_t base_ms = 0) {
    count_.fill(0);
    sum_.fill(0);
    occupied_.fill(0);
    total_ = 0;
    base_ms_ = base_ms;
  }

  [[nodiscard]] std::uint32_t base_ms() const { return base_ms_; }

  [[nodiscard]] std::uint32_t total() const { return total_; }
  [[nodiscard]] std::uint32_t count(std::uint32_t bucket) const {
    return count_[bucket];
  }
  [[nodiscard]] std::uint64_t sum(std::uint32_t bucket) const {
    return sum_[bucket];
  }

  /// Fold count * f(bucket mean write time) over non-empty buckets,
  /// walking the occupancy bitmap so cost is O(occupied buckets).
  template <typename Fn>
  [[nodiscard]] double fold(Fn&& f) const {
    double acc = 0.0;
    for (std::uint32_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t bits = occupied_[w];
      while (bits != 0) {
        const auto b =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        const double mean = static_cast<double>(sum_[b]) /
                            static_cast<double>(count_[b]);
        acc += static_cast<double>(count_[b]) * f(mean);
        bits &= bits - 1;
      }
    }
    return acc;
  }

  bool operator==(const AgeHistogram&) const = default;

  /// Checkpoint serialization: the sparse set of occupied buckets (the
  /// dense arrays are ~1.6 KB per histogram, but post-warm-up blocks
  /// occupy only a handful of buckets). restore() reproduces exact
  /// equality; totals are rebuilt from the bucket counts.
  void save(io::StateSink& sink) const {
    sink.u32(base_ms_);
    std::uint32_t n = 0;
    for (const std::uint64_t w : occupied_) n += std::popcount(w);
    sink.u32(n);
    for (std::uint32_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t bits = occupied_[w];
      while (bits != 0) {
        const auto b =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        sink.u16(static_cast<std::uint16_t>(b));
        sink.u32(count_[b]);
        sink.u64(sum_[b]);
        bits &= bits - 1;
      }
    }
  }

  /// Inverse of save(). The caller (FlashArray::restore) has already
  /// checksum-validated the stream, so shape violations are hard errors.
  void restore(io::StateSource& src) {
    clear(src.u32());
    const std::uint32_t n = src.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t b = src.u16();
      const std::uint32_t count = src.u32();
      const std::uint64_t sum = src.u64();
      PPSSD_CHECK_MSG(b < kBuckets && count > 0,
                      "age histogram bucket out of range in checkpoint");
      count_[b] = count;
      sum_[b] = sum;
      occupied_[b / 64] |= 1ull << (b % 64);
      total_ += count;
    }
  }

 private:
  std::array<std::uint32_t, kBuckets> count_{};
  std::array<std::uint64_t, kBuckets> sum_{};
  std::array<std::uint64_t, (kBuckets + 63) / 64> occupied_{};
  std::uint32_t total_ = 0;
  std::uint32_t base_ms_ = 0;
};

}  // namespace ppssd::nand
