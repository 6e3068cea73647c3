#include "core/runner.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/knob.h"
#include "common/thread_pool.h"
#include "perf/progress.h"
#include "telemetry/introspect/format.h"
#include "telemetry/telemetry.h"
#include "trace/profiles.h"

namespace ppssd::core {

namespace {
std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : fallback;
}
}  // namespace

Runner::Runner()
    : cache_dir_(env_or("PPSSD_NO_CACHE", "").empty()
                     ? env_or("PPSSD_CACHE_DIR", ".ppssd_cache")
                     : "") {}

Runner::Runner(std::string cache_dir) : cache_dir_(std::move(cache_dir)) {}

std::string Runner::cache_path(const ExperimentSpec& spec) const {
  // The schema version is part of the key: a result-layout change makes
  // every old cache file invisible instead of silently misread.
  return cache_dir_ + "/v" + std::to_string(kResultSchemaVersion) + "-" +
         spec.key() + ".result";
}

ExperimentResult Runner::run(const ExperimentSpec& spec) {
  // A cached cell would skip the simulation entirely — and with it every
  // requested telemetry artifact (trace, metrics CSV, time series) or
  // introspection stream (snapshots, flight dump). When either
  // environment is set, always re-simulate.
  const bool want_telemetry =
      telemetry::TelemetryOptions::from_env().any() ||
      telemetry::introspect::IntrospectOptions::from_env().any();
  if (!cache_dir_.empty() && !want_telemetry) {
    std::ifstream in(cache_path(spec));
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      if (auto cached = ExperimentResult::deserialize(buf.str())) {
        cached->spec = spec;
        return *cached;
      }
    }
  }

  // All status output funnels through the progress reporter: it owns the
  // stderr mutex (so PPSSD_JOBS>1 cells never interleave mid-line), obeys
  // the TTY / PPSSD_PROGRESS activation policy, and drives the live
  // percent/rate/ETA line from the replayer's ticks.
  auto& progress = perf::ProgressReporter::global();
  progress.note("[ppssd] simulating " + spec.key() + " ...");
  perf::ProgressCell* cell =
      progress.start_cell(spec.scheme + "/" + spec.trace);
  ExperimentResult result = run_experiment(spec, cell);
  progress.finish_cell(cell, result.wall_seconds,
                       result.reads + result.writes);

  if (!cache_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cache_dir_, ec);
    std::ofstream out(cache_path(spec));
    if (out) out << result.serialize();
  }
  return result;
}

std::vector<ExperimentResult> Runner::run_all(
    const std::vector<ExperimentSpec>& specs, std::size_t jobs) {
  if (jobs == 0) jobs = env_jobs();
  // The telemetry artifact writers (trace JSON, metrics CSV, time series)
  // share env-configured output paths; concurrent cells would clobber
  // each other's files. The same goes for the snapshot stream (append
  // mode gives one stream per *sequential* cell) and the check-failure
  // hook (process-global). Telemetry/introspection runs force sequential
  // execution.
  if (telemetry::TelemetryOptions::from_env().any() ||
      telemetry::introspect::IntrospectOptions::from_env().any()) {
    jobs = 1;
  }

  perf::ProgressReporter::global().set_expected_cells(specs.size());
  std::vector<ExperimentResult> results(specs.size());
  if (jobs <= 1 || specs.size() <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) results[i] = run(specs[i]);
    return results;
  }
  ThreadPool pool(jobs);
  pool.parallel_for(specs.size(),
                    [&](std::size_t i) { results[i] = run(specs[i]); });
  return results;
}

std::vector<ExperimentResult> Runner::run_matrix(
    const std::vector<std::string>& schemes,
    const std::vector<std::string>& traces, std::uint32_t pe_cycles) {
  std::vector<ExperimentSpec> specs;
  specs.reserve(schemes.size() * traces.size());
  for (const auto& trace : traces) {
    for (const auto& scheme : schemes) {
      ExperimentSpec spec = default_spec();
      spec.scheme = scheme;
      spec.trace = trace;
      spec.pe_cycles = pe_cycles;
      specs.push_back(std::move(spec));
    }
  }
  return run_all(specs);
}

std::size_t Runner::env_jobs() {
  const std::string env = env_or("PPSSD_JOBS", "");
  if (env.empty()) return 1;
  const auto parsed = parse_whole<std::size_t>(env);
  if (!parsed || *parsed == 0) {
    reject_knob("PPSSD_JOBS", env, "a positive integer job count");
  }
  return *parsed;
}

ExperimentSpec Runner::default_spec() {
  ExperimentSpec spec;
  if (!env_or("REPRO_FULL", "").empty()) {
    spec.total_blocks = 65536;
    spec.trace_scale = 1.0;
  }
  const std::string blocks = env_or("PPSSD_BLOCKS", "");
  if (!blocks.empty()) {
    spec.total_blocks = parse_blocks_knob("PPSSD_BLOCKS", blocks);
  }
  const std::string scale = env_or("PPSSD_SCALE", "");
  if (!scale.empty()) {
    spec.trace_scale = parse_scale_knob("PPSSD_SCALE", scale);
  }
  return spec;
}

std::vector<std::string> Runner::paper_traces() {
  std::vector<std::string> names;
  for (const auto& p : trace::paper_profiles()) {
    names.push_back(p.name);
  }
  return names;
}

std::vector<std::string> Runner::paper_schemes() {
  // Registry enumeration order is the paper order (Baseline, MGA, IPU,
  // then later additions) — every bench matrix follows it automatically.
  std::vector<std::string> names = cache::SchemeRegistry::instance().names();
  const std::string filter = env_or("PPSSD_SCHEMES", "");
  if (filter.empty()) return names;

  // $PPSSD_SCHEMES=a,b restricts the matrix. Resolve each requested name
  // through the registry (fails fast listing known schemes on a typo),
  // then keep registry order rather than the env-var order so figures
  // stay stable under any spelling of the same subset.
  std::vector<std::string> wanted;
  std::stringstream ss(filter);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const auto begin = tok.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;  // empty segment
    const auto end = tok.find_last_not_of(" \t");
    wanted.push_back(
        cache::SchemeRegistry::instance().resolve(
            tok.substr(begin, end - begin + 1)).name);
  }
  PPSSD_CHECK_MSG(!wanted.empty(),
                  "PPSSD_SCHEMES is set but names no schemes");
  std::vector<std::string> out;
  for (const auto& name : names) {
    for (const auto& w : wanted) {
      if (w == name) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

}  // namespace ppssd::core
