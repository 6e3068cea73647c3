// Explore the reliability substrate: raw-BER curves and what disturb
// costs a read in ECC decode latency, the penalty the simulator prices.
//
//   ./error_model_explorer
#include <cstdio>

#include "core/report.h"
#include "ecc/ber_model.h"
#include "ecc/latency_model.h"

using namespace ppssd;

int main() {
  const SsdConfig cfg;
  const ecc::BerModel ber(cfg.ber);
  const ecc::EccLatencyModel lat(cfg.ecc);

  // 1. Figure-2-style raw BER curves.
  core::Table curve({"P/E", "conventional", "partial(4x)", "gap"});
  for (const std::uint32_t pe : {500u, 1000u, 2000u, 4000u, 8000u, 12000u}) {
    const double conv = ber.conventional_ber(pe);
    const double part = ber.partial_ber(pe, cfg.cache.max_partial_programs);
    curve.add_row({std::to_string(pe), core::Table::fmt(conv * 1e4, 2) + "e-4",
                   core::Table::fmt(part * 1e4, 2) + "e-4",
                   core::Table::fmt(part / conv, 2) + "x"});
  }
  std::printf("%s\n", curve.render("Raw BER vs P/E cycles").c_str());

  // 2. What disturb does to a stored subpage.
  core::Table disturb({"in-page", "neighbour", "raw BER", "ECC decode (us)"});
  for (const std::uint32_t in_page : {0u, 1u, 2u, 3u}) {
    for (const std::uint32_t nbr : {0u, 8u}) {
      nand::DisturbSnapshot snap;
      snap.mode = CellMode::kSlc;
      snap.pe_cycles = 4000;
      snap.in_page_disturbs = in_page;
      snap.neighbor_disturbs = nbr;
      const double raw = ber.raw_ber(snap);
      disturb.add_row({std::to_string(in_page), std::to_string(nbr),
                       core::Table::fmt(raw * 1e5, 2) + "e-5",
                       core::Table::fmt(ns_to_us(lat.decode_time(raw)), 2)});
    }
  }
  std::printf("%s\n",
              disturb.render("Disturb -> BER -> read penalty (SLC page)")
                  .c_str());
  return 0;
}
