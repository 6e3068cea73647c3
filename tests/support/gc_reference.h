// Test-only oracles for GC victim selection: the full-scan forms the
// library's indexed and aggregate-driven policies replaced (see
// ftl/gc_policy.h). GreedyPolicy::select_victim must agree with
// greedy_select_victim, and IsrPolicy's terms and victim with the exact
// per-subpage page walks below.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "ftl/block_manager.h"
#include "ftl/gc_policy.h"
#include "nand/flash_array.h"

namespace ppssd::ftl::reference {

/// The pre-index full candidate scan: most invalid subpages, lowest
/// BlockId on ties, none when no candidate has an invalid subpage.
inline BlockId greedy_select_victim(const nand::FlashArray& array,
                                    const BlockManager& bm,
                                    std::uint32_t plane, CellMode mode) {
  BlockId best = kInvalidBlock;
  std::uint32_t best_invalid = 0;
  bm.for_each_candidate(plane, mode, [&](BlockId b) {
    const std::uint32_t invalid = array.block(b).invalid_subpages();
    if (invalid > best_invalid ||
        (invalid == best_invalid && invalid > 0 && b < best)) {
      best = b;
      best_invalid = invalid;
    }
  });
  return best_invalid == 0 ? kInvalidBlock : best;
}

/// (sum of valid-subpage ages in ms, valid count) by a page walk.
inline std::pair<double, std::uint64_t> age_sum_exact(
    const nand::FlashArray& array, BlockId block, SimTime now) {
  const nand::Block& blk = array.block(block);
  const double now_ms = ns_to_ms(now);
  double sum = 0.0;
  std::uint64_t valid = 0;
  for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
    for (std::uint32_t s = 0; s < blk.subpages_per_page(); ++s) {
      const nand::Subpage sp = array.subpage(
          block, static_cast<PageId>(p), static_cast<SubpageId>(s));
      if (sp.state == nand::SubpageState::kValid) {
        sum += now_ms - sp.write_time_ms;
        ++valid;
      }
    }
  }
  return {sum, valid};
}

/// IS'_i of Equation 2, one exp per valid subpage of a never-updated page.
inline double cold_weight_exact(const nand::FlashArray& array, BlockId block,
                                SimTime now, double mean_age_ms) {
  if (mean_age_ms <= 0.0) return 0.0;
  const nand::Block& blk = array.block(block);
  const double now_ms = ns_to_ms(now);
  double weight = 0.0;
  for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
    if (page_updated(array.page(block, static_cast<PageId>(p)))) continue;
    for (std::uint32_t s = 0; s < blk.subpages_per_page(); ++s) {
      const nand::Subpage sp = array.subpage(
          block, static_cast<PageId>(p), static_cast<SubpageId>(s));
      if (sp.state == nand::SubpageState::kValid) {
        weight += 1.0 - std::exp(-(now_ms - sp.write_time_ms) / mean_age_ms);
      }
    }
  }
  return weight;
}

/// ISR_i of Equation 1 with the exact cold-weight term.
inline double isr_exact(const nand::FlashArray& array, BlockId block,
                        SimTime now, double mean_age_ms) {
  const nand::Block& blk = array.block(block);
  return (blk.invalid_subpages() +
          cold_weight_exact(array, block, now, mean_age_ms)) /
         static_cast<double>(blk.total_subpages());
}

/// The pre-optimization two-pass ISR selection: T from exact age sums
/// over the plane's candidates, then the highest exact ISR.
inline BlockId isr_select_victim(const nand::FlashArray& array,
                                 const BlockManager& bm, std::uint32_t plane,
                                 CellMode mode, SimTime now) {
  double age_total = 0.0;
  std::uint64_t valid_total = 0;
  std::vector<BlockId> candidates;
  bm.for_each_candidate(plane, mode, [&](BlockId b) {
    candidates.push_back(b);
    const auto [sum, count] = age_sum_exact(array, b, now);
    age_total += sum;
    valid_total += count;
  });
  const double mean_age =
      valid_total > 0 ? age_total / static_cast<double>(valid_total) : 0.0;
  BlockId best = kInvalidBlock;
  double best_isr = 0.0;
  for (const BlockId b : candidates) {
    if (array.block(b).programmed_subpages() == 0) continue;
    const double v = isr_exact(array, b, now, mean_age);
    if (v > best_isr) {
      best = b;
      best_isr = v;
    }
  }
  return best;
}

}  // namespace ppssd::ftl::reference
