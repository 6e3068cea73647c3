// Wall-clock performance suite: replays the fixed paper scheme × trace
// matrix with the result cache disabled (every cell simulates) and writes
// the machine-readable BENCH_perf.json next to a human summary table.
//
//   ./perf_suite [output.json]        default output: BENCH_perf.json
//
// Scale knobs are the usual ones — PPSSD_BLOCKS / PPSSD_SCALE shrink the
// device and trace, PPSSD_JOBS parallelises cells. The committed
// repo-root baseline is generated at PPSSD_BLOCKS=2048 PPSSD_SCALE=0.02
// (matching the CI perf-smoke job); compare runs only against baselines
// produced with the same knobs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "perf/bench_report.h"
#include "sim/ssd.h"
#include "telemetry/introspect/snapshotter.h"

using namespace ppssd;
using namespace ppssd::bench;

namespace {

/// Introspection-overhead cell pair: the full Ssd submit path with the
/// snapshotter + flight recorder detached (pricing the null-handle hot
/// path the perf gate enforces) vs attached at a 5 ms sim-time snapshot
/// interval. Both variants run the same loop including the tick guard;
/// the scratch stream files are deleted afterwards — only the timing
/// survives.
Timing run_snapshot_variant(bool attached) {
  const std::string scratch_snap = "BENCH_snapshot_scratch.bin";
  const std::string scratch_flight = "BENCH_flight_scratch.bin";
  SsdConfig cfg = SsdConfig::scaled(2048);
  sim::Ssd ssd(cfg, "IPU");
  std::unique_ptr<telemetry::introspect::Snapshotter> snap;
  if (attached) {
    telemetry::introspect::IntrospectOptions opts;
    opts.snapshot_every_ns = ms_to_ns(5.0);
    opts.snapshot_path = scratch_snap;
    opts.flight_capacity = 4096;
    opts.flight_path = scratch_flight;
    snap = std::make_unique<telemetry::introspect::Snapshotter>(opts);
    ssd.attach_introspection(snap.get());
  }

  using clock = std::chrono::steady_clock;
  Timing t;
  std::uint64_t lsn = 0;
  SimTime now = 0;
  while (t.seconds < kMinMeasureSeconds) {
    const auto start = clock::now();
    for (int i = 0; i < 2048; ++i) {
      // Same 3:1 write:read churn as the attribution pair, so the two
      // observability overhead figures are directly comparable.
      const OpType op = (i & 3) == 3 ? OpType::kRead : OpType::kWrite;
      ssd.submit(op, (lsn * 17) * kSubpageBytes, kSubpageBytes, now);
      now += us_to_ns(20.0);
      ++lsn;
      ++t.calls;
      if (snap != nullptr) snap->tick(now);
    }
    t.seconds += std::chrono::duration<double>(clock::now() - start).count();
  }

  if (attached) {
    snap->finish(now);
    ssd.attach_introspection(nullptr);
    snap.reset();
    std::remove(scratch_snap.c_str());
    std::remove(scratch_flight.c_str());
  }
  return t;
}

/// Warm-start checkpoint pair (DESIGN.md §14): the same cell run twice
/// against a scratch checkpoint directory — first cold (warms the device
/// and stores the checkpoint), then warm (restores it). The two cells
/// make the cache's value visible in the perf trajectory, and the
/// per-phase gate on warmstart/warm's warmup time is what catches the
/// cache silently breaking.
///
/// The cell pins its own trace and scale (blocks still follow the
/// device config under test): at the smoke scale of the rest of the
/// matrix the warm-up replay is a couple of milliseconds, so the pair
/// would measure checkpoint serialization overhead instead of the
/// warm-up work the cache saves. ads has the largest prefill footprint
/// per measured request, so at scale 0.5 the warm-up replay dominates
/// the cold path (~10x the restore cost) while the measure phase stays
/// a few hundred milliseconds.
core::ExperimentResult run_warmstart_variant(const std::string& dir) {
  setenv("PPSSD_WARMSTART", "1", 1);
  setenv("PPSSD_WARMSTART_DIR", dir.c_str(), 1);
  core::ExperimentSpec spec = Runner::default_spec();
  spec.scheme = "IPU";
  spec.trace = "ads";
  spec.trace_scale = 0.5;
  const core::ExperimentResult r = core::run_experiment(spec);
  unsetenv("PPSSD_WARMSTART");
  unsetenv("PPSSD_WARMSTART_DIR");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = report_path_from_args(argc, argv);
  print_scale_banner("Wall-clock performance suite");

  // Empty cache dir: a cache hit would report zero wall time for the cell.
  Runner runner("");
  const auto traces = Runner::paper_traces();
  const auto schemes = Runner::paper_schemes();
  const auto results = runner.run_matrix(schemes, traces);

  perf::BenchReport report;
  const auto spec = Runner::default_spec();
  report.blocks = spec.total_blocks;
  report.scale = spec.trace_scale;
  report.jobs = Runner::env_jobs();

  Table table({"cell", "requests", "wall s", "req/s", "ctrl ev/s",
               "measure s", "warmup s"});
  for (const auto& r : results) {
    perf::BenchCell cell;
    cell.key = r.spec.key();
    cell.scheme = r.spec.scheme;
    cell.trace = r.spec.trace;
    cell.requests = r.reads + r.writes;
    cell.ctrl_events = r.ctrl_events;
    cell.wall_seconds = r.wall_seconds;
    cell.reqs_per_sec = r.wall_reqs_per_sec;
    cell.ctrl_events_per_sec = r.wall_ctrl_events_per_sec;
    cell.phases.setup_seconds = r.wall_setup_seconds;
    cell.phases.warmup_seconds = r.wall_warmup_seconds;
    cell.phases.measure_seconds = r.wall_measure_seconds;
    cell.phases.report_seconds = r.wall_report_seconds;
    report.cells.push_back(cell);

    table.add_row({cell.scheme + "/" + cell.trace,
                   Table::count(cell.requests), Table::fmt(cell.wall_seconds, 2),
                   Table::fmt(cell.reqs_per_sec, 0),
                   Table::fmt(cell.ctrl_events_per_sec, 0),
                   Table::fmt(cell.phases.measure_seconds, 2),
                   Table::fmt(cell.phases.warmup_seconds, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("total wall %.1fs, geomean %.0f req/s\n",
              report.total_wall_seconds(), report.geomean_reqs_per_sec());

  // Snapshotter-overhead pair: appended after the matrix summary so the
  // printed geomean stays the replay matrix alone (requests here are bare
  // submits, not replayed trace requests).
  for (const bool attached : {false, true}) {
    const Timing t = run_snapshot_variant(attached);
    const std::string key =
        std::string("snapshot/") + (attached ? "on" : "off");
    add_micro_cell(report, key, "IPU",
                   std::string("snapshot-") + (attached ? "on" : "off"), t);
    std::printf("%-14s %8.1f ns/op  %10.0f ops/s\n", key.c_str(),
                t.ns_per_call(), t.calls_per_sec());
  }

  // Warm-start pair: cold stores the checkpoint, warm restores it. Keys
  // are stable ("warmstart/cold", "warmstart/warm") so CI can --require
  // them; the warm cell's warmup phase is the cache's health signal.
  {
    const std::string scratch_dir = "BENCH_warmstart_scratch";
    std::filesystem::remove_all(scratch_dir);
    for (const bool warm : {false, true}) {
      const core::ExperimentResult r = run_warmstart_variant(scratch_dir);
      perf::BenchCell cell;
      cell.key = std::string("warmstart/") + (warm ? "warm" : "cold");
      cell.scheme = r.spec.scheme;
      cell.trace = r.spec.trace;
      cell.requests = r.reads + r.writes;
      cell.ctrl_events = r.ctrl_events;
      cell.wall_seconds = r.wall_seconds;
      cell.reqs_per_sec = r.wall_reqs_per_sec;
      cell.ctrl_events_per_sec = r.wall_ctrl_events_per_sec;
      cell.phases.setup_seconds = r.wall_setup_seconds;
      cell.phases.warmup_seconds = r.wall_warmup_seconds;
      cell.phases.measure_seconds = r.wall_measure_seconds;
      cell.phases.report_seconds = r.wall_report_seconds;
      report.cells.push_back(cell);
      std::printf("%-14s %8.2f s warmup  %8.2f s total\n", cell.key.c_str(),
                  cell.phases.warmup_seconds, cell.wall_seconds);
    }
    std::filesystem::remove_all(scratch_dir);
  }

  if (!report.save(out_path)) {
    std::fprintf(stderr, "perf_suite: failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cells)\n", out_path.c_str(), report.cells.size());
  return 0;
}
