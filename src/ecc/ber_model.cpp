#include "ecc/ber_model.h"

#include <algorithm>
#include <cmath>

namespace ppssd::ecc {

double BerModel::wear_scale(std::uint32_t pe) const {
  return std::pow(static_cast<double>(pe) / cfg_.anchor_pe,
                  cfg_.disturb_pe_exponent);
}

double BerModel::base_ber(CellMode mode, std::uint32_t pe) const {
  const double rel = static_cast<double>(pe) / cfg_.anchor_pe;
  const double mlc = cfg_.mlc_anchor_ber *
                     (cfg_.fresh_fraction +
                      (1.0 - cfg_.fresh_fraction) * std::pow(rel, cfg_.pe_exponent));
  return mode == CellMode::kSlc ? cfg_.slc_factor * mlc : mlc;
}

BerModel::WearTerms BerModel::compute_terms(std::uint32_t pe) const {
  const double scale = wear_scale(pe);
  WearTerms t;
  t.in_page = cfg_.in_page_disturb_factor * scale;
  t.neighbor = cfg_.neighbor_disturb_factor * scale;
  t.base[static_cast<std::size_t>(CellMode::kSlc)] =
      base_ber(CellMode::kSlc, pe);
  t.base[static_cast<std::size_t>(CellMode::kMlc)] =
      base_ber(CellMode::kMlc, pe);
  t.filled = true;
  return t;
}

BerModel::WearTerms BerModel::wear_terms(std::uint32_t pe) const {
  if (pe >= kMemoLimit) return compute_terms(pe);
  if (pe >= memo_.size()) memo_.resize(pe + 1);
  WearTerms& t = memo_[pe];
  if (!t.filled) t = compute_terms(pe);
  return t;
}

double BerModel::raw_ber(const nand::DisturbSnapshot& snap) const {
  const WearTerms t = wear_terms(snap.pe_cycles);
  const double r = snap.reprogrammed ? cfg_.reprogram_penalty : 0.0;
  const double ber =
      t.base[static_cast<std::size_t>(snap.mode)] *
      (1.0 + r + t.in_page * snap.in_page_disturbs +
       t.neighbor * snap.neighbor_disturbs);
  return std::min(ber, 0.5);
}

double BerModel::conventional_ber(std::uint32_t pe_cycles) const {
  return base_ber(CellMode::kMlc, pe_cycles);
}

double BerModel::partial_ber(std::uint32_t pe_cycles,
                             std::uint32_t max_partials) const {
  nand::DisturbSnapshot snap;
  snap.mode = CellMode::kMlc;
  snap.pe_cycles = pe_cycles;
  snap.in_page_disturbs = max_partials > 0 ? max_partials - 1 : 0;
  snap.neighbor_disturbs = 0;
  return raw_ber(snap);
}

}  // namespace ppssd::ecc
