// Diff two BENCH_perf.json files with a noise tolerance.
//
//   perf_compare <baseline.json> <current.json> [--tolerance 0.25]
//                [--warn-only] [--require <key-substring>]...
//
// Exit status: 0 when every matched cell's throughput is within
// tolerance (or --warn-only is set), 1 on regression, 2 on usage or
// unreadable/invalid input. Cells present on only one side are reported
// but never fail the run — the matrix legitimately grows.
//
// Each matched cell is also gated per phase (setup / warmup / measure
// wall seconds, same tolerance, lower-is-better): a phase slowdown fails
// like a throughput regression even when the end-to-end rate still looks
// healthy — e.g. a warm-start cache that stopped hitting shows up as a
// warmup regression first. Sub-50 ms phases are never gated (noise).
//
// --require marks cells whose key contains the substring as
// load-bearing: a regression there fails the run even under
// --warn-only, and a required baseline cell missing from the current
// report is itself a failure (a gate that silently stops measuring is
// worse than one that fails). A required cell present only in the
// current report (e.g. a newly registered scheme the committed baseline
// predates) is reported as new but does not fail — regenerating the
// baseline picks it up. Each --require pattern must match at least one
// current cell, so a gate cannot rot into requiring nothing.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perf/bench_report.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <current.json> "
               "[--tolerance <fraction>] [--warn-only] "
               "[--require <key-substring>]...\n",
               argv0);
  return 2;
}

bool matches_any(const std::string& key,
                 const std::vector<std::string>& needles) {
  for (const std::string& n : needles) {
    if (key.find(n) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double tolerance = 0.25;
  bool warn_only = false;
  std::vector<std::string> required;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      tolerance = std::strtod(argv[++i], nullptr);
      if (tolerance < 0.0 || tolerance >= 1.0) {
        std::fprintf(stderr, "perf_compare: tolerance must be in [0, 1)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--warn-only") == 0) {
      warn_only = true;
    } else if (std::strcmp(argv[i], "--require") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      required.emplace_back(argv[++i]);
    } else if (baseline_path.empty()) {
      baseline_path = argv[i];
    } else if (current_path.empty()) {
      current_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (baseline_path.empty() || current_path.empty()) return usage(argv[0]);

  const auto baseline = ppssd::perf::BenchReport::load(baseline_path);
  if (!baseline) {
    std::fprintf(stderr, "perf_compare: cannot read %s\n",
                 baseline_path.c_str());
    return 2;
  }
  const auto current = ppssd::perf::BenchReport::load(current_path);
  if (!current) {
    std::fprintf(stderr, "perf_compare: cannot read %s\n",
                 current_path.c_str());
    return 2;
  }
  if (baseline->blocks != current->blocks ||
      baseline->scale != current->scale) {
    std::fprintf(stderr,
                 "perf_compare: warning: configs differ (baseline %u blocks "
                 "scale %g, current %u blocks scale %g) — ratios are not "
                 "meaningful across scales\n",
                 baseline->blocks, baseline->scale, current->blocks,
                 current->scale);
  }

  const auto cmp =
      ppssd::perf::compare_bench(*baseline, *current, tolerance);
  std::printf("%s", cmp.render().c_str());

  bool required_failure = false;
  for (const ppssd::perf::CellDelta& d : cmp.cells) {
    if ((d.regression || d.phase_regression()) &&
        matches_any(d.key, required)) {
      std::fprintf(stderr, "perf_compare: required cell regressed%s: %s\n",
                   d.regression ? "" : " (phase)", d.key.c_str());
      required_failure = true;
    }
  }
  for (const std::string& key : cmp.only_in_baseline) {
    if (matches_any(key, required)) {
      std::fprintf(stderr,
                   "perf_compare: required cell missing from current: %s\n",
                   key.c_str());
      required_failure = true;
    }
  }
  // New cells (no baseline counterpart) are informational even when
  // required — the matrix legitimately grows ahead of its baseline.
  for (const std::string& key : cmp.only_in_current) {
    if (matches_any(key, required)) {
      std::printf("perf_compare: required cell is new (no baseline): %s\n",
                  key.c_str());
    }
  }
  // A --require pattern matching nothing in the current report means the
  // gate stopped measuring what it was told to watch.
  for (const std::string& n : required) {
    bool seen = false;
    for (const auto& d : cmp.cells) seen = seen || matches_any(d.key, {n});
    for (const auto& k : cmp.only_in_current) seen = seen || matches_any(k, {n});
    if (!seen) {
      std::fprintf(stderr,
                   "perf_compare: required pattern '%s' matched no cell in "
                   "the current report\n",
                   n.c_str());
      required_failure = true;
    }
  }
  if (required_failure) return 1;
  if (cmp.has_regression() || cmp.has_phase_regression()) {
    return warn_only ? 0 : 1;
  }
  return 0;
}
