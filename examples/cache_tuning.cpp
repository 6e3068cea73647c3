// Sweep SLC-cache provisioning knobs and show the performance/endurance
// trade-off — the tuning exercise an integrator of this library would run
// before sizing a product's SLC-mode region.
//
//   ./cache_tuning [trace] [scale]     defaults: ts0 0.03
#include <cstdio>
#include <string>
#include <vector>

#include "core/report.h"
#include "example_args.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

using namespace ppssd;

namespace {

struct Cell {
  double slc_ratio;
  double gc_threshold;
  double avg_ms;
  double write_ms;
  std::uint64_t slc_erases;
  std::uint64_t mlc_subpages;
};

Cell run_cell(const std::string& trace, double scale, double slc_ratio,
              double gc_threshold) {
  SsdConfig cfg = SsdConfig::scaled(8192);
  cfg.cache.slc_ratio = slc_ratio;
  cfg.cache.gc_threshold = gc_threshold;
  sim::Ssd ssd(cfg, "IPU");
  trace::SyntheticWorkload workload(trace::profile_by_name(trace),
                                    ssd.logical_bytes(), scale);
  sim::Replayer replayer(ssd);
  const auto result = replayer.replay(workload);
  return Cell{slc_ratio,
              gc_threshold,
              result.latency.avg_overall_ms(),
              result.latency.avg_write_ms(),
              ssd.scheme().array().counters().slc_erases,
              ssd.scheme().metrics().mlc_subpages_written};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace =
      argc > 1 ? examples::check_trace_name("trace", argv[1]) : "ts0";
  const double scale = argc > 2 ? parse_scale_knob("scale", argv[2]) : 0.03;

  std::printf("IPU cache tuning on trace %s (scale %.2f)\n\n", trace.c_str(),
              scale);

  core::Table table({"slc_ratio", "gc_thresh", "avg ms", "write ms",
                     "SLC erases", "MLC subpages"});
  for (const double ratio : {0.03, 0.05, 0.08, 0.12}) {
    for (const double thresh : {0.05, 0.10}) {
      const Cell cell = run_cell(trace, scale, ratio, thresh);
      table.add_row({core::Table::pct(cell.slc_ratio),
                     core::Table::pct(cell.gc_threshold),
                     core::Table::fmt(cell.avg_ms),
                     core::Table::fmt(cell.write_ms),
                     core::Table::count(cell.slc_erases),
                     core::Table::count(cell.mlc_subpages)});
    }
  }
  std::printf("%s\n", table.render("SLC-mode cache provisioning sweep").c_str());
  std::printf(
      "Reading the table: a larger SLC region absorbs more updates (lower\n"
      "write latency, fewer MLC writes) but shrinks the host-visible MLC\n"
      "capacity; a lower GC threshold defers cleaning at the cost of\n"
      "burstier tail latency.\n");
  return 0;
}
