// GC victim-selection policies.
//
// * GreedyPolicy — the conventional choice (Baseline, MGA, and the MLC
//   region of every scheme): pick the candidate block with the most
//   invalid subpages.
// * IsrPolicy — the paper's Section 3.2 policy: pick the block with the
//   largest invalid-subpage ratio
//       ISR_i = (IS_i + IS'_i) / TS_i                        (Eq. 1)
//   where IS_i counts invalid subpages, TS_i is the block's total
//   subpages, and IS'_i weighs *valid but cold* subpages by their age
//       IS'_i = sum_j (1 - exp(-t_ij / T_i))                 (Eq. 2)
//   over subpages j that were never updated in this block, with t_ij the
//   subpage's age and T_i the block's mean valid-subpage age (the Poisson
//   inter-update assumption of [23]). Cold-heavy blocks are preferred so
//   the GC pass doubles as a cold-data ejection pass.
//
// Both policies run off incrementally maintained state instead of walking
// pages: Greedy answers from the BlockManager's invalid-count bucket index
// in O(1), and ISR's per-block terms come from running aggregates —
// age_sum() is an O(1) identity over the nand::Block's sum_write_time_ms()
// and cold_weight() an O(kBuckets) fold over the block's age histogram,
// which the FlashArray keeps for SLC-mode blocks only (one exp per
// occupied bucket instead of one per valid subpage; see
// DESIGN.md's GC-complexity section for the approximation bound). The
// original full-scan forms are test-only oracles
// (tests/support/gc_reference.h): they define the semantics the fast
// paths are tested against.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "ftl/block_manager.h"
#include "nand/flash_array.h"
#include "telemetry/metrics.h"

namespace ppssd::ftl {

/// A page "was updated" when it absorbed at least one partial program
/// after its first program — for IPU pages that means an in-place update
/// of the extent it stores. Never-updated pages are the cold-movement
/// candidates in both Eq. 2 and the degraded GC movement of Section 3.2.
[[nodiscard]] inline bool page_updated(const nand::Page& page) {
  return page.program_ops() > 1;
}

class GcPolicy {
 public:
  virtual ~GcPolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Choose a victim among the plane's GC candidates in the given region.
  /// Returns kInvalidBlock when no candidate has reclaimable space.
  [[nodiscard]] virtual BlockId select_victim(const nand::FlashArray& array,
                                              const BlockManager& bm,
                                              std::uint32_t plane,
                                              CellMode mode,
                                              SimTime now) const = 0;

  /// Register victim-selection counters; `labels` identifies the owner
  /// (scheme, region). The policy name is added automatically.
  void attach_telemetry(telemetry::MetricsRegistry& registry,
                        telemetry::Labels labels);
  /// Drop the counter handles (the registry is going away).
  void detach_telemetry() { selected_ = exhausted_ = nullptr; }

  /// Tally one select_victim() outcome (no-op until telemetry attaches).
  /// Public so a caller that answers a selection from the victim index's
  /// watermark, without calling select_victim(), keeps the tallies exact.
  void count_selection(bool found) const {
    if (found && selected_) selected_->inc();
    if (!found && exhausted_) exhausted_->inc();
  }

 private:
  telemetry::Counter* selected_ = nullptr;
  telemetry::Counter* exhausted_ = nullptr;  // calls with no usable victim
};

class GreedyPolicy final : public GcPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "greedy"; }

  /// O(1) amortized: the answer is the head of the BlockManager's
  /// max-invalid bucket, which already encodes the lowest-BlockId
  /// tie-break.
  [[nodiscard]] BlockId select_victim(const nand::FlashArray& array,
                                      const BlockManager& bm,
                                      std::uint32_t plane, CellMode mode,
                                      SimTime now) const override;
};

class IsrPolicy final : public GcPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "isr"; }

  [[nodiscard]] BlockId select_victim(const nand::FlashArray& array,
                                      const BlockManager& bm,
                                      std::uint32_t plane, CellMode mode,
                                      SimTime now) const override;

  /// ISR_i of Equation 1 for one SLC-mode block. `mean_age_ms` is T_i —
  /// the average valid-subpage age the exponential is normalised by. The
  /// paper derives it from "all subpages"; select_victim() computes it
  /// over the plane's candidates so cold *blocks* score above
  /// equally-shaped hot ones.
  [[nodiscard]] static double isr(const nand::FlashArray& array,
                                  BlockId block, SimTime now,
                                  double mean_age_ms);

  /// IS'_i of Equation 2 (the cold-valid weight term), evaluated in
  /// O(AgeHistogram::kBuckets) from the block's age histogram with each
  /// bucket's subpages collapsed onto their mean write time. The block
  /// must be SLC-mode: MLC blocks keep no histogram.
  [[nodiscard]] static double cold_weight(const nand::FlashArray& array,
                                          BlockId block, SimTime now,
                                          double mean_age_ms);

  /// (sum of valid-subpage ages in ms, valid count) — T_i building block.
  /// O(1): valid * now_ms - sum_write_time_ms.
  [[nodiscard]] static std::pair<double, std::uint64_t> age_sum(
      const nand::Block& block, SimTime now);

 private:
  // Candidate scratch for select_victim(): reused across calls so the
  // steady-state GC path allocates nothing.
  mutable std::vector<BlockId> scratch_;
};

}  // namespace ppssd::ftl
