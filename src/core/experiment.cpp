#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <sstream>

#include "common/check.h"
#include "core/warmstart.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/introspect/snapshotter.h"
#include "telemetry/telemetry.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::core {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cold warm-up: pre-fill the MLC region, then stream ~1.2x the SLC cache
/// capacity of writes from the trace's address model, and land the device
/// on the quiescent post-warm-up boundary (metrics and timing reset).
/// This is the work a warm-start checkpoint hit replaces. Returns the
/// wall seconds the prefill took.
///
/// The prefill is a closed-form bulk fill of the freshly built device
/// (Scheme::prefill_mlc). The warm replay takes the replayer's host path
/// (sim::walk_records: decode and pricing on worker threads, placement
/// with the request lookahead here) and prices each request with
/// Ssd::price: nothing reads its completions or latencies, and
/// reset_timing() discards its timing, so it skips the Replayer's folds
/// and the host completion queue. Ssd::price is what Ssd::enqueue does
/// before its completion push, so the device state it leaves is the same.
double run_warmup(sim::Ssd& ssd, const trace::SyntheticWorkload& workload,
                  const trace::TraceProfile& profile) {
  const auto& geom = ssd.scheme().array().geometry();
  // Fill the whole logical space: an aged drive holds the trace's
  // footprint plus other resident data, so the MLC region runs near its
  // steady-state occupancy and evictions contend with MLC GC.
  const std::uint64_t prefill_subpages = geom.logical_subpages();
  const std::uint32_t free_floor =
      ssd.scheme().blocks().gc_threshold_blocks(CellMode::kMlc) +
      std::max<std::uint32_t>(
          3, static_cast<std::uint32_t>(
                 0.03 * (geom.blocks_per_plane() -
                         geom.slc_blocks_per_plane())));
  const auto prefill_start = Clock::now();
  ssd.scheme().prefill_mlc(prefill_subpages, free_floor);
  const double prefill_seconds = seconds_since(prefill_start);
  const std::uint64_t cache_bytes =
      static_cast<std::uint64_t>(geom.slc_block_count()) *
      geom.pages_per_block(CellMode::kSlc) * geom.config().page_bytes;
  trace::TraceProfile warm = profile;
  warm.seed = profile.seed + 7777;
  warm.write_ratio = 1.0;
  warm.hot_objects = workload.hot_object_count();
  warm.mean_interarrival_us = 1.0;  // back-to-back; timing is reset after
  warm.requests = static_cast<std::uint64_t>(
      1.2 * static_cast<double>(cache_bytes) /
      (profile.mean_write_kb * 1024.0));
  trace::SyntheticWorkload warmup(warm, ssd.logical_bytes());
  // Warm-up ops carry the kPrefill origin so a blame ledger attached
  // around this phase (telemetry tour, bench harnesses) separates
  // pre-conditioning traffic from measured host work.
  ssd.scheme().set_origin_phase(cache::OpOrigin::kPrefill);
  sim::walk_records(ssd, warmup, 0, ssd.observed(), nullptr,
                    [&ssd](const sim::Ssd::Placed& req,
                           std::span<const cache::PhysOp> ops) {
                      ssd.price(req, ops);
                    });
  ssd.scheme().set_origin_phase(cache::OpOrigin::kHost);
  ssd.scheme().reset_metrics();
  ssd.reset_timing();
  return prefill_seconds;
}
}  // namespace

std::string ExperimentSpec::key() const {
  std::ostringstream os;
  os << scheme << '-' << trace << "-pe" << pe_cycles << "-b" << total_blocks
     << "-s" << trace_scale;
  // Option entries append in insertion order; schemes emit a fixed key
  // order so the encoding is stable (and byte-compatible with the legacy
  // IPU "-isr1-lvl1-ipp1-cmb0" suffix).
  for (const auto& [k, v] : options.entries) os << '-' << k << v;
  return os.str();
}

std::string cell_artifact_path(const std::string& path,
                               const ExperimentSpec& spec) {
  if (path.empty()) return path;
  const std::string cell = spec.key();
  const std::size_t name = path.find_last_of('/') + 1;  // npos + 1 == 0
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || dot <= name) return path + '.' + cell;
  return path.substr(0, dot) + '.' + cell + path.substr(dot);
}

SsdConfig config_for(const ExperimentSpec& spec) {
  SsdConfig cfg = spec.total_blocks == 65536
                      ? SsdConfig::paper()
                      : SsdConfig::scaled(spec.total_blocks);
  cfg.wear.initial_pe_cycles = spec.pe_cycles;
  return cfg;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                perf::ProgressSink* progress) {
  const auto wall_start = Clock::now();
  auto phase_start = wall_start;

  ExperimentResult r;
  r.spec = spec;

  const SsdConfig cfg = config_for(spec);
  sim::Ssd ssd(cfg, cache::make_scheme(spec.scheme, cfg, spec.options));
  trace::SyntheticWorkload workload(trace::profile_by_name(spec.trace),
                                    ssd.logical_bytes(), spec.trace_scale);
  const auto& profile = trace::profile_by_name(spec.trace);
  sim::Replayer replayer(ssd);

  r.wall_setup_seconds = seconds_since(phase_start);
  phase_start = Clock::now();

  // Warm-up: the paper evaluates a pre-worn device (P/E already at
  // thousands of cycles), i.e. an aged SSD in steady state. Two phases:
  //  1. Pre-fill the MLC region with the trace's logical footprint (an
  //     aged drive is mostly full, so evictions contend with MLC GC).
  //  2. Fill the SLC cache with ~1.2x its capacity of writes drawn from
  //     the same address model (identical hot-object layout).
  // Metrics and queues reset afterwards so the measured phase starts from
  // steady state.
  //
  // The warmed state is a pure function of the cache key, so with
  // PPSSD_WARMSTART=1 both phases are skipped on a checkpoint hit: the
  // device restores straight to the post-warm-up quiescent boundary.
  // Restores are behavior-preserving to the byte, so measured results are
  // identical either way; a miss warms cold and stores the checkpoint.
  const WarmStartCache warmstart = WarmStartCache::from_env();
  const std::string spec_key = spec.key();
  if (!warmstart.try_restore(spec_key, ssd)) {
    r.wall_prefill_seconds = run_warmup(ssd, workload, profile);
    warmstart.store(spec_key, ssd);
  }
  r.wall_warmup_seconds = seconds_since(phase_start);
  phase_start = Clock::now();

  // Telemetry (PPSSD_TRACE / PPSSD_METRICS / PPSSD_TIMESERIES /
  // PPSSD_ATTRIB): attach after warm-up so the per-cell artifacts cover
  // only the measured phase. The bundle is declared after `ssd`, so it is
  // destroyed (flushing any remaining output) while the scheme its gauges
  // poll is still alive.
  telemetry::TelemetryOptions topts = telemetry::TelemetryOptions::from_env();
  std::unique_ptr<telemetry::Telemetry> tel;
  if (topts.any()) {
    for (std::string* path : {&topts.trace_path, &topts.metrics_path,
                              &topts.timeseries_path,
                              &topts.attribution_path}) {
      *path = cell_artifact_path(*path, spec);
    }
    tel = std::make_unique<telemetry::Telemetry>(topts);
    ssd.attach_telemetry(tel.get());
  }

  // Introspection (PPSSD_SNAPSHOT / PPSSD_FLIGHT): same post-warm-up
  // attach discipline. The snapshot stream appends one stream per cell;
  // the flight dump gets the per-cell name. Declared after `ssd` so
  // finish()/destruction run while the scheme it observes is alive.
  telemetry::introspect::IntrospectOptions iopts =
      telemetry::introspect::IntrospectOptions::from_env();
  std::unique_ptr<telemetry::introspect::Snapshotter> snap;
  if (iopts.any()) {
    iopts.flight_path = cell_artifact_path(iopts.flight_path, spec);
    snap = std::make_unique<telemetry::introspect::Snapshotter>(iopts);
    ssd.attach_introspection(snap.get());
    replayer.set_snapshotter(snap.get());
  }

  if (progress != nullptr) {
    progress->begin(workload.expected_records());
    replayer.set_progress(progress);
  }
  const sim::ReplayResult replay = replayer.replay(workload);
  if (tel) tel->finish(replay.makespan);
  if (snap) {
    snap->finish(replay.makespan);
    ssd.attach_introspection(nullptr);
  }
  r.wall_measure_seconds = seconds_since(phase_start);
  phase_start = Clock::now();

  const auto& m = ssd.scheme().metrics();
  const auto fp = ssd.scheme().footprint();
  const auto& counters = ssd.scheme().array().counters();

  r.avg_read_ms = replay.latency.avg_read_ms();
  r.avg_write_ms = replay.latency.avg_write_ms();
  r.avg_overall_ms = replay.latency.avg_overall_ms();
  r.p50_read_ms = replay.latency.read_p50_ms();
  r.p50_write_ms = replay.latency.write_p50_ms();
  r.p95_read_ms = replay.latency.read_p95_ms();
  r.p95_write_ms = replay.latency.write_p95_ms();
  r.p99_read_ms = replay.latency.read_p99_ms();
  r.p99_write_ms = replay.latency.write_p99_ms();
  r.p999_read_ms = replay.latency.read_p999_ms();
  r.p999_write_ms = replay.latency.write_p999_ms();
  r.reads = replay.latency.read_count();
  r.writes = replay.latency.write_count();
  r.read_ber = m.read_ber.mean();
  r.slc_subpages = m.slc_subpages_written;
  r.mlc_subpages = m.mlc_subpages_written;
  for (int i = 0; i < 4; ++i) r.level_subpages[i] = m.level_subpages[i];
  r.intra_page_updates = m.intra_page_updates;
  r.gc_utilization = m.gc_utilization.mean();
  r.slc_erases = counters.slc_erases;
  r.mlc_erases = counters.mlc_erases;
  r.map_base_bytes = fp.base_bytes;
  r.map_extra_bytes = fp.scheme_extra;
  r.map_aux_bytes = fp.aux_bytes;
  r.slc_gc_count = m.slc_gc_count;
  r.mlc_gc_count = m.mlc_gc_count;
  r.evicted_subpages = m.evicted_subpages;
  r.gc_moved_subpages = m.gc_moved_subpages;
  r.avg_queue_depth = replay.avg_queue_depth;
  r.avg_queue_depth_at_arrival = replay.avg_queue_depth_at_arrival;
  {
    const auto& u = ssd.controller().usage();
    r.chip_fg_seconds = ns_to_ms(u.read_fg + u.program_fg) / 1e3;
    r.chip_bg_seconds = ns_to_ms(u.read_bg + u.program_bg) / 1e3;
    r.chip_erase_seconds = ns_to_ms(u.erase_bg) / 1e3;
  }
  // The controller was reset at the end of warm-up, so its command count
  // covers exactly the measured phase.
  r.ctrl_events = ssd.controller().scheduled_ops();
  r.wall_report_seconds = seconds_since(phase_start);
  r.wall_seconds = seconds_since(wall_start);
  if (r.wall_measure_seconds > 0.0) {
    r.wall_reqs_per_sec =
        static_cast<double>(r.reads + r.writes) / r.wall_measure_seconds;
    r.wall_ctrl_events_per_sec =
        static_cast<double>(r.ctrl_events) / r.wall_measure_seconds;
  }
  return r;
}

// ---- serialization ------------------------------------------------------

std::string ExperimentResult::serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "schema=" << kResultSchemaVersion << '\n'
     << "key=" << spec.key() << '\n'
     << "avg_read_ms=" << avg_read_ms << '\n'
     << "avg_write_ms=" << avg_write_ms << '\n'
     << "avg_overall_ms=" << avg_overall_ms << '\n'
     << "p50_read_ms=" << p50_read_ms << '\n'
     << "p50_write_ms=" << p50_write_ms << '\n'
     << "p95_read_ms=" << p95_read_ms << '\n'
     << "p95_write_ms=" << p95_write_ms << '\n'
     << "p99_read_ms=" << p99_read_ms << '\n'
     << "p99_write_ms=" << p99_write_ms << '\n'
     << "p999_read_ms=" << p999_read_ms << '\n'
     << "p999_write_ms=" << p999_write_ms << '\n'
     << "reads=" << reads << '\n'
     << "writes=" << writes << '\n'
     << "read_ber=" << read_ber << '\n'
     << "slc_subpages=" << slc_subpages << '\n'
     << "mlc_subpages=" << mlc_subpages << '\n'
     << "level0=" << level_subpages[0] << '\n'
     << "level1=" << level_subpages[1] << '\n'
     << "level2=" << level_subpages[2] << '\n'
     << "level3=" << level_subpages[3] << '\n'
     << "intra_page_updates=" << intra_page_updates << '\n'
     << "gc_utilization=" << gc_utilization << '\n'
     << "slc_erases=" << slc_erases << '\n'
     << "mlc_erases=" << mlc_erases << '\n'
     << "map_base_bytes=" << map_base_bytes << '\n'
     << "map_extra_bytes=" << map_extra_bytes << '\n'
     << "map_aux_bytes=" << map_aux_bytes << '\n'
     << "slc_gc_count=" << slc_gc_count << '\n'
     << "mlc_gc_count=" << mlc_gc_count << '\n'
     << "evicted_subpages=" << evicted_subpages << '\n'
     << "gc_moved_subpages=" << gc_moved_subpages << '\n'
     << "avg_queue_depth=" << avg_queue_depth << '\n'
     << "avg_queue_depth_at_arrival=" << avg_queue_depth_at_arrival << '\n'
     << "chip_fg_seconds=" << chip_fg_seconds << '\n'
     << "chip_bg_seconds=" << chip_bg_seconds << '\n'
     << "chip_erase_seconds=" << chip_erase_seconds << '\n'
     << "ctrl_events=" << ctrl_events << '\n'
     // Every wall_* key is wall-clock-derived and nondeterministic; the
     // determinism checks filter on this prefix.
     << "wall_seconds=" << wall_seconds << '\n'
     << "wall_setup_seconds=" << wall_setup_seconds << '\n'
     << "wall_warmup_seconds=" << wall_warmup_seconds << '\n'
     << "wall_prefill_seconds=" << wall_prefill_seconds << '\n'
     << "wall_measure_seconds=" << wall_measure_seconds << '\n'
     << "wall_report_seconds=" << wall_report_seconds << '\n'
     << "wall_reqs_per_sec=" << wall_reqs_per_sec << '\n'
     << "wall_ctrl_events_per_sec=" << wall_ctrl_events_per_sec << '\n';
  return os.str();
}

std::optional<ExperimentResult> ExperimentResult::deserialize(
    const std::string& text) {
  ExperimentResult r;
  std::istringstream in(text);
  std::string line;
  int seen = 0;
  bool schema_ok = false;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string k = line.substr(0, eq);
    const std::string v = line.substr(eq + 1);
    ++seen;
    try {
      if (k == "schema") {
        if (std::stoi(v) != kResultSchemaVersion) return std::nullopt;
        schema_ok = true;
      } else if (k == "key") {
        /* informational */
      } else if (k == "avg_read_ms") {
        r.avg_read_ms = std::stod(v);
      } else if (k == "avg_write_ms") {
        r.avg_write_ms = std::stod(v);
      } else if (k == "avg_overall_ms") {
        r.avg_overall_ms = std::stod(v);
      } else if (k == "p50_read_ms") {
        r.p50_read_ms = std::stod(v);
      } else if (k == "p50_write_ms") {
        r.p50_write_ms = std::stod(v);
      } else if (k == "p95_read_ms") {
        r.p95_read_ms = std::stod(v);
      } else if (k == "p95_write_ms") {
        r.p95_write_ms = std::stod(v);
      } else if (k == "p99_read_ms") {
        r.p99_read_ms = std::stod(v);
      } else if (k == "p99_write_ms") {
        r.p99_write_ms = std::stod(v);
      } else if (k == "p999_read_ms") {
        r.p999_read_ms = std::stod(v);
      } else if (k == "p999_write_ms") {
        r.p999_write_ms = std::stod(v);
      } else if (k == "reads") {
        r.reads = std::stoull(v);
      } else if (k == "writes") {
        r.writes = std::stoull(v);
      } else if (k == "read_ber") {
        r.read_ber = std::stod(v);
      } else if (k == "slc_subpages") {
        r.slc_subpages = std::stoull(v);
      } else if (k == "mlc_subpages") {
        r.mlc_subpages = std::stoull(v);
      } else if (k == "level0") {
        r.level_subpages[0] = std::stoull(v);
      } else if (k == "level1") {
        r.level_subpages[1] = std::stoull(v);
      } else if (k == "level2") {
        r.level_subpages[2] = std::stoull(v);
      } else if (k == "level3") {
        r.level_subpages[3] = std::stoull(v);
      } else if (k == "intra_page_updates") {
        r.intra_page_updates = std::stoull(v);
      } else if (k == "gc_utilization") {
        r.gc_utilization = std::stod(v);
      } else if (k == "slc_erases") {
        r.slc_erases = std::stoull(v);
      } else if (k == "mlc_erases") {
        r.mlc_erases = std::stoull(v);
      } else if (k == "map_base_bytes") {
        r.map_base_bytes = std::stoull(v);
      } else if (k == "map_extra_bytes") {
        r.map_extra_bytes = std::stoull(v);
      } else if (k == "map_aux_bytes") {
        r.map_aux_bytes = std::stoull(v);
      } else if (k == "slc_gc_count") {
        r.slc_gc_count = std::stoull(v);
      } else if (k == "mlc_gc_count") {
        r.mlc_gc_count = std::stoull(v);
      } else if (k == "evicted_subpages") {
        r.evicted_subpages = std::stoull(v);
      } else if (k == "gc_moved_subpages") {
        r.gc_moved_subpages = std::stoull(v);
      } else if (k == "avg_queue_depth") {
        r.avg_queue_depth = std::stod(v);
      } else if (k == "avg_queue_depth_at_arrival") {
        r.avg_queue_depth_at_arrival = std::stod(v);
      } else if (k == "chip_fg_seconds") {
        r.chip_fg_seconds = std::stod(v);
      } else if (k == "chip_bg_seconds") {
        r.chip_bg_seconds = std::stod(v);
      } else if (k == "chip_erase_seconds") {
        r.chip_erase_seconds = std::stod(v);
      } else if (k == "ctrl_events") {
        r.ctrl_events = std::stoull(v);
      } else if (k == "wall_seconds") {
        r.wall_seconds = std::stod(v);
      } else if (k == "wall_setup_seconds") {
        r.wall_setup_seconds = std::stod(v);
      } else if (k == "wall_warmup_seconds") {
        r.wall_warmup_seconds = std::stod(v);
      } else if (k == "wall_prefill_seconds") {
        r.wall_prefill_seconds = std::stod(v);
      } else if (k == "wall_measure_seconds") {
        r.wall_measure_seconds = std::stod(v);
      } else if (k == "wall_report_seconds") {
        r.wall_report_seconds = std::stod(v);
      } else if (k == "wall_reqs_per_sec") {
        r.wall_reqs_per_sec = std::stod(v);
      } else if (k == "wall_ctrl_events_per_sec") {
        r.wall_ctrl_events_per_sec = std::stod(v);
      } else {
        --seen;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  if (!schema_ok) return std::nullopt;  // pre-versioning or foreign file
  if (seen < 10) return std::nullopt;   // clearly truncated
  return r;
}

}  // namespace ppssd::core
