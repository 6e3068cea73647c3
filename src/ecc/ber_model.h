// Raw bit-error-rate model.
//
// Calibrated to the paper's Figure 2 (MLC statistical data from Zhang et
// al., FAST'16): at the 4000 P/E anchor, conventional programming shows a
// raw BER of 2.8e-4 and a fully partially-programmed page 3.8e-4, with the
// gap widening as P/E grows.
//
// Functional form:
//   base(pe)  = anchor_ber * (f + (1-f) * (pe/anchor)^e)        [MLC]
//   base_slc  = slc_factor * base(pe)
//   ber(snap) = base * (1 + a(pe) * in_page + b(pe) * neighbor)
// where a(pe) = in_page_disturb_factor * (pe/anchor)^d and likewise b(pe).
// With the default a(4000) = 0.12 and the manufacturer limit of 4 programs
// per page, a first-written subpage absorbs up to 3 in-page disturbs:
// 2.8e-4 * (1 + 3*0.12) ≈ 3.8e-4, matching the Figure 2 anchor.
//
// raw_ber() memoises the P/E-dependent terms — a(pe), b(pe) and both
// modes' base(pe) — per P/E count on first use, evaluated by the same
// expressions, so results are bit-identical to the closed form. The memo
// is unsynchronised: a model is single-threaded (each Scheme owns its own).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/config.h"
#include "nand/disturb.h"

namespace ppssd::ecc {

class BerModel {
 public:
  explicit BerModel(const BerConfig& cfg) : cfg_(cfg) {}

  /// Raw BER of a stored subpage given its disturb snapshot.
  [[nodiscard]] double raw_ber(const nand::DisturbSnapshot& snap) const;

  /// Conventional-programming curve (Figure 2 lower series) for MLC pages.
  [[nodiscard]] double conventional_ber(std::uint32_t pe_cycles) const;

  /// Worst-case partial-programming curve (Figure 2 upper series): a
  /// subpage that absorbed `max_partials - 1` in-page disturbs.
  [[nodiscard]] double partial_ber(std::uint32_t pe_cycles,
                                   std::uint32_t max_partials) const;

  [[nodiscard]] const BerConfig& config() const { return cfg_; }

 private:
  /// raw_ber()'s P/E-dependent terms for one P/E count.
  struct WearTerms {
    double in_page = 0.0;          // a(pe)
    double neighbor = 0.0;         // b(pe)
    std::array<double, 2> base{};  // base_ber(mode, pe), by CellMode
    bool filled = false;
  };
  /// P/E counts at or above this are computed per call, not memoised, so
  /// an extreme count cannot grow the table without bound.
  static constexpr std::uint32_t kMemoLimit = 1u << 16;

  [[nodiscard]] double base_ber(CellMode mode, std::uint32_t pe) const;
  [[nodiscard]] double wear_scale(std::uint32_t pe) const;
  [[nodiscard]] WearTerms compute_terms(std::uint32_t pe) const;
  [[nodiscard]] WearTerms wear_terms(std::uint32_t pe) const;

  BerConfig cfg_;
  mutable std::vector<WearTerms> memo_;  // indexed by P/E count
};

}  // namespace ppssd::ecc
