#include "ecc/ber_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/config.h"

namespace ppssd::ecc {
namespace {

BerModel default_model() { return BerModel(SsdConfig{}.ber); }

TEST(BerModel, Figure2AnchorsMatch) {
  const BerModel model = default_model();
  // Paper/Zhang [19]: at 4000 P/E, conventional 2.8e-4, partial 3.8e-4.
  EXPECT_NEAR(model.conventional_ber(4000), 2.8e-4, 1e-6);
  EXPECT_NEAR(model.partial_ber(4000, 4), 3.8e-4, 0.1e-4);
}

TEST(BerModel, MonotoneInPeCycles) {
  const BerModel model = default_model();
  double prev = 0.0;
  for (std::uint32_t pe = 0; pe <= 12000; pe += 500) {
    const double ber = model.conventional_ber(pe);
    EXPECT_GT(ber, prev);
    prev = ber;
  }
}

TEST(BerModel, PartialGapWidensWithWear) {
  const BerModel model = default_model();
  double prev_gap = 0.0;
  for (std::uint32_t pe = 1000; pe <= 12000; pe += 1000) {
    const double gap =
        model.partial_ber(pe, 4) - model.conventional_ber(pe);
    EXPECT_GT(gap, prev_gap) << "pe=" << pe;
    prev_gap = gap;
  }
}

TEST(BerModel, SlcFactorScalesSlcModePages) {
  // Default: SLC-mode pages are MLC cells in one-bit mode; equal base BER.
  const BerModel model = default_model();
  nand::DisturbSnapshot slc{CellMode::kSlc, 4000, 0, 0};
  nand::DisturbSnapshot mlc{CellMode::kMlc, 4000, 0, 0};
  EXPECT_DOUBLE_EQ(model.raw_ber(slc), model.raw_ber(mlc));

  // A non-unit factor scales only the SLC-mode curve.
  BerConfig cfg = SsdConfig{}.ber;
  cfg.slc_factor = 0.25;
  const BerModel scaled(cfg);
  EXPECT_DOUBLE_EQ(scaled.raw_ber(slc), 0.25 * scaled.raw_ber(mlc));
  EXPECT_DOUBLE_EQ(scaled.raw_ber(mlc), model.raw_ber(mlc));
}

TEST(BerModel, DisturbIncreasesBer) {
  const BerModel model = default_model();
  nand::DisturbSnapshot base{CellMode::kSlc, 4000, 0, 0};
  nand::DisturbSnapshot in_page{CellMode::kSlc, 4000, 2, 0};
  nand::DisturbSnapshot neighbor{CellMode::kSlc, 4000, 0, 5};
  EXPECT_GT(model.raw_ber(in_page), model.raw_ber(base));
  EXPECT_GT(model.raw_ber(neighbor), model.raw_ber(base));
}

TEST(BerModel, InPageDisturbDominatesNeighbor) {
  // One in-page disturb event must hurt more than one neighbour event —
  // the core of the paper's argument for intra-page update.
  const BerModel model = default_model();
  nand::DisturbSnapshot in_page{CellMode::kSlc, 4000, 1, 0};
  nand::DisturbSnapshot neighbor{CellMode::kSlc, 4000, 0, 1};
  EXPECT_GT(model.raw_ber(in_page), model.raw_ber(neighbor));
}

TEST(BerModel, BerNeverExceedsHalf) {
  const BerModel model = default_model();
  nand::DisturbSnapshot extreme{CellMode::kMlc, 4'000'000, 200, 60000};
  EXPECT_LE(model.raw_ber(extreme), 0.5);
}

TEST(BerModel, FreshDeviceHasFloor) {
  const BerModel model = default_model();
  EXPECT_GT(model.conventional_ber(0), 0.0);
}

// The header's functional form, evaluated from scratch on every call.
double closed_form_ber(const BerConfig& cfg,
                       const nand::DisturbSnapshot& snap) {
  const double scale = std::pow(static_cast<double>(snap.pe_cycles) /
                                    cfg.anchor_pe,
                                cfg.disturb_pe_exponent);
  const double a = cfg.in_page_disturb_factor * scale;
  const double b = cfg.neighbor_disturb_factor * scale;
  const double r = snap.reprogrammed ? cfg.reprogram_penalty : 0.0;
  const double rel = static_cast<double>(snap.pe_cycles) / cfg.anchor_pe;
  const double mlc =
      cfg.mlc_anchor_ber *
      (cfg.fresh_fraction +
       (1.0 - cfg.fresh_fraction) * std::pow(rel, cfg.pe_exponent));
  const double base = snap.mode == CellMode::kSlc ? cfg.slc_factor * mlc : mlc;
  const double ber =
      base * (1.0 + r + a * snap.in_page_disturbs +
              b * snap.neighbor_disturbs);
  return std::min(ber, 0.5);
}

// Every disturb combination at one P/E count must match the closed form
// bit for bit, whether the count's memo entry is fresh or already filled.
void expect_memo_matches_closed_form(const BerConfig& cfg,
                                     const BerModel& model,
                                     std::uint32_t pe) {
  for (const CellMode mode : {CellMode::kSlc, CellMode::kMlc}) {
    for (std::uint32_t in_page = 0; in_page <= 3; ++in_page) {
      for (std::uint32_t neighbor = 0; neighbor <= 8; ++neighbor) {
        for (const bool reprogrammed : {false, true}) {
          nand::DisturbSnapshot snap{mode, pe, in_page, neighbor};
          snap.reprogrammed = reprogrammed;
          EXPECT_EQ(model.raw_ber(snap), closed_form_ber(cfg, snap))
              << "pe=" << pe << " mode=" << static_cast<int>(mode)
              << " in_page=" << in_page << " neighbor=" << neighbor
              << " reprogrammed=" << reprogrammed;
        }
      }
    }
  }
}

TEST(BerModel, MemoisedRawBerEqualsClosedFormBitForBit) {
  // A non-default slc_factor and reprogram penalty make both modes and the
  // reprogrammed flag visible in the result.
  BerConfig cfg = SsdConfig{}.ber;
  cfg.slc_factor = 0.37;
  cfg.reprogram_penalty = 0.21;
  // Includes counts above the memo table's limit and an extreme one.
  const std::vector<std::uint32_t> ascending = {
      0, 1, 2, 3, 17, 999, 1000, 3999, 4000, 4001, 12000, 65535, 65536,
      70000, 4'000'000};
  const std::vector<std::uint32_t> descending(ascending.rbegin(),
                                              ascending.rend());
  const std::vector<std::uint32_t> repeated = {4000, 4000, 7, 4000, 7, 7,
                                               70000, 70000, 0, 0};
  for (const auto* order : {&ascending, &descending, &repeated}) {
    const BerModel model(cfg);  // fresh memo per visiting order
    for (const std::uint32_t pe : *order) {
      expect_memo_matches_closed_form(cfg, model, pe);
    }
  }
  // The public curves go through the same memo.
  const BerModel model(cfg);
  for (const std::uint32_t pe : ascending) {
    nand::DisturbSnapshot snap{CellMode::kMlc, pe, 3, 0};
    EXPECT_EQ(model.partial_ber(pe, 4), closed_form_ber(cfg, snap));
  }
}

}  // namespace
}  // namespace ppssd::ecc
