// BENCH_perf.json: the machine-readable wall-clock perf trajectory.
//
// bench/perf_suite writes one BenchReport per run; tools/perf_compare
// diffs two of them with a noise tolerance. The schema (documented in
// DESIGN.md §8) is deliberately flat:
//
//   {
//     "schema": 1,
//     "config": {"blocks": 2048, "scale": 0.02, "jobs": 1},
//     "cells": [
//       {"key": "...", "scheme": "IPU", "trace": "ts0",
//        "requests": 20000, "ctrl_events": 123456,
//        "wall_seconds": 1.23, "reqs_per_sec": 16260.2,
//        "ctrl_events_per_sec": 100370.7,
//        "phases": {"setup": 0.01, "warmup": 0.40,
//                   "measure": 0.80, "report": 0.02}}
//     ],
//     "totals": {"wall_seconds": 7.4, "geomean_reqs_per_sec": 15800.0}
//   }
//
// Parsing reuses the telemetry JSON validator, so the artifact is
// round-trippable by construction and the tests hold it to that.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ppssd::perf {

struct BenchPhases {
  double setup_seconds = 0.0;
  double warmup_seconds = 0.0;
  double measure_seconds = 0.0;
  double report_seconds = 0.0;
};

struct BenchCell {
  std::string key;     // full experiment cache key (identity for diffs)
  std::string scheme;  // registry scheme name (cache/registry.h)
  std::string trace;   // profile name
  std::uint64_t requests = 0;
  std::uint64_t ctrl_events = 0;  // flash commands in the measured phase
  double wall_seconds = 0.0;
  double reqs_per_sec = 0.0;
  double ctrl_events_per_sec = 0.0;
  BenchPhases phases;
};

struct BenchReport {
  static constexpr int kSchemaVersion = 1;

  std::uint32_t blocks = 0;
  double scale = 0.0;
  std::size_t jobs = 1;
  std::vector<BenchCell> cells;

  [[nodiscard]] double total_wall_seconds() const;
  /// Geometric mean of per-cell host reqs/s (0 when empty).
  [[nodiscard]] double geomean_reqs_per_sec() const;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<BenchReport> from_json(
      const std::string& text);

  /// File convenience wrappers; load() returns nullopt on I/O or parse
  /// failure, save() returns false on I/O failure.
  [[nodiscard]] static std::optional<BenchReport> load(
      const std::string& path);
  [[nodiscard]] bool save(const std::string& path) const;
};

/// One phase's baseline-vs-current wall-time comparison. Phases are
/// time-based (lower is better), the opposite sense of the throughput
/// ratio: cur/base > 1 is a slowdown.
struct PhaseDelta {
  double base_seconds = 0.0;
  double cur_seconds = 0.0;
  /// cur/base; > 1 is a slowdown. 0 when the baseline time is 0.
  double ratio = 0.0;
  bool regression = false;  // ratio above 1 + tolerance on a gated phase
};

/// Phases shorter than this on both sides are never gated: sub-50 ms
/// timings are scheduler noise, not signal.
inline constexpr double kPhaseGateFloorSeconds = 0.05;

/// One cell's baseline-vs-current throughput comparison, plus the
/// per-phase wall-time breakdown (setup / warmup / measure). The phase
/// gates catch regressions the end-to-end rate hides — e.g. a warm-start
/// cache that silently stopped hitting shows up as a warmup-phase
/// regression long before it moves the overall req/s.
struct CellDelta {
  std::string key;
  double base_reqs_per_sec = 0.0;
  double cur_reqs_per_sec = 0.0;
  /// cur/base; < 1 is a slowdown. 0 when the baseline rate is 0.
  double ratio = 0.0;
  bool regression = false;  // ratio below 1 - tolerance
  PhaseDelta setup;
  PhaseDelta warmup;
  PhaseDelta measure;

  [[nodiscard]] bool phase_regression() const {
    return setup.regression || warmup.regression || measure.regression;
  }
};

struct BenchComparison {
  double tolerance = 0.0;
  std::vector<CellDelta> cells;
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_current;

  [[nodiscard]] bool has_regression() const;
  /// Any matched cell with a gated phase slowdown (see CellDelta).
  [[nodiscard]] bool has_phase_regression() const;
  /// Worst (smallest) cur/base ratio over matched cells; 1.0 when none.
  [[nodiscard]] double worst_ratio() const;
  /// Human-readable per-cell delta table plus a verdict line.
  [[nodiscard]] std::string render() const;
};

/// Match cells by key and flag every cell whose throughput dropped by
/// more than `tolerance` (fraction, e.g. 0.25 = 25 % slower).
[[nodiscard]] BenchComparison compare_bench(const BenchReport& baseline,
                                            const BenchReport& current,
                                            double tolerance);

}  // namespace ppssd::perf
