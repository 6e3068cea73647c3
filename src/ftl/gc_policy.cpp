#include "ftl/gc_policy.h"

#include <cmath>
#include <vector>

#include "common/units.h"

namespace ppssd::ftl {

void GcPolicy::attach_telemetry(telemetry::MetricsRegistry& registry,
                                telemetry::Labels labels) {
  labels.push_back({"policy", name()});
  selected_ = registry.counter("gc_victims_selected", labels);
  exhausted_ = registry.counter("gc_victims_exhausted", labels);
}

BlockId GreedyPolicy::select_victim(const nand::FlashArray& /*array*/,
                                    const BlockManager& bm,
                                    std::uint32_t plane, CellMode mode,
                                    SimTime /*now*/) const {
  // The index files every candidate under its invalid count and keeps the
  // max watermark; a victim must reclaim at least one subpage, and the
  // index returns kInvalidBlock when no candidate has any.
  const BlockId best = bm.max_invalid_candidate(plane, mode);
  count_selection(best != kInvalidBlock);
  return best;
}

std::pair<double, std::uint64_t> IsrPolicy::age_sum(const nand::Block& block,
                                                    SimTime now) {
  // sum_j (now - wt_j) over valid subpages == valid * now - sum_j wt_j,
  // and the block maintains sum_j wt_j incrementally.
  const std::uint64_t valid = block.valid_subpages();
  return {static_cast<double>(valid) * ns_to_ms(now) -
              static_cast<double>(block.sum_write_time_ms()),
          valid};
}

double IsrPolicy::cold_weight(const nand::FlashArray& array, BlockId block,
                              SimTime now, double mean_age_ms) {
  const nand::AgeHistogram* hist = array.age_histogram(block);
  PPSSD_CHECK_MSG(hist != nullptr,
                  "ISR scores SLC-mode blocks only (no age histogram)");
  if (mean_age_ms <= 0.0) return 0.0;
  const double now_ms = ns_to_ms(now);
  // One exp per occupied histogram bucket, each bucket's subpages
  // evaluated at their mean write time. The kernel is concave in the
  // write time, so this overestimates the exact sum by at most
  // count * (bucket width) / (2 * T) per bucket (see DESIGN.md).
  return hist->fold([&](double mean_wt_ms) {
    return 1.0 - std::exp(-(now_ms - mean_wt_ms) / mean_age_ms);
  });
}

double IsrPolicy::isr(const nand::FlashArray& array, BlockId block,
                      SimTime now, double mean_age_ms) {
  const nand::Block& blk = array.block(block);
  const double total = blk.total_subpages();
  return (blk.invalid_subpages() +
          cold_weight(array, block, now, mean_age_ms)) /
         total;
}

BlockId IsrPolicy::select_victim(const nand::FlashArray& array,
                                 const BlockManager& bm, std::uint32_t plane,
                                 CellMode mode, SimTime now) const {
  // Pass 1: T = mean valid-subpage age over the plane's candidates.
  // age_sum() is O(1) per block, so this pass is O(candidates).
  scratch_.clear();
  double age_total = 0.0;
  std::uint64_t valid_total = 0;
  bm.for_each_candidate(plane, mode, [&](BlockId b) {
    scratch_.push_back(b);
    const auto [sum, count] = age_sum(array.block(b), now);
    age_total += sum;
    valid_total += count;
  });
  const double mean_age =
      valid_total > 0 ? age_total / static_cast<double>(valid_total) : 0.0;

  // Pass 2: score by Equation 1, O(kBuckets) per block.
  BlockId best = kInvalidBlock;
  double best_isr = 0.0;
  for (const BlockId b : scratch_) {
    const auto& blk = array.block(b);
    if (blk.programmed_subpages() == 0) continue;  // nothing to reclaim
    const double v = isr(array, b, now, mean_age);
    if (v > best_isr) {
      best = b;
      best_isr = v;
    }
  }
  count_selection(best != kInvalidBlock);
  return best;
}

}  // namespace ppssd::ftl
