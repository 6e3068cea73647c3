// Program-disturb observation for a stored subpage.
//
// The paper's error model (Section 2.2, Figure 2) distinguishes:
//   * in-page disturb — partial programs applied to a page *after* a
//     subpage was written stress that subpage's cells directly;
//   * neighbouring-page disturb — programs on wordline-adjacent pages.
// Page/Block track the raw counters; DisturbSnapshot packages everything
// the BER model needs to price a read of one subpage. The snapshot is
// assembled by FlashArray::disturb_of, which owns the subpage rows
// the subtraction terms come from (DESIGN.md §14).
#pragma once

#include <cstdint>

#include "common/types.h"

namespace ppssd::nand {

struct DisturbSnapshot {
  CellMode mode = CellMode::kSlc;
  std::uint32_t pe_cycles = 0;
  /// Partial programs applied to the same page after this subpage's write.
  std::uint32_t in_page_disturbs = 0;
  /// Programs applied to wordline-adjacent pages after this subpage's write.
  std::uint32_t neighbor_disturbs = 0;
  /// Page was produced by an in-place SLC→dense reprogram (IPS): the
  /// continued ISPP sequence leaves wider threshold-voltage distributions
  /// than a fresh dense program, priced as a BER penalty.
  bool reprogrammed = false;
};

}  // namespace ppssd::nand
