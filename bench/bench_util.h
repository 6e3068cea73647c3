// Shared helpers for the per-figure bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/report.h"
#include "core/runner.h"

namespace ppssd::bench {

using core::ExperimentResult;
using core::Runner;
using core::Table;

/// The full scheme × trace matrix at the default scale, grouped by trace.
/// Each value holds results in paper_schemes() order (registry order:
/// Baseline, MGA, IPU, IPS, ... — $PPSSD_SCHEMES restricts the set).
inline std::map<std::string, std::vector<ExperimentResult>> matrix_by_trace(
    Runner& runner, std::uint32_t pe_cycles = 4000) {
  const auto traces = Runner::paper_traces();
  const auto schemes = Runner::paper_schemes();
  const auto results = runner.run_matrix(schemes, traces, pe_cycles);
  // Optional flat export for external plotting.
  if (const char* dir = std::getenv("PPSSD_CSV_DIR")) {
    core::write_results_csv(std::string(dir) + "/matrix_pe" +
                                std::to_string(pe_cycles) + ".csv",
                            results);
  }
  std::map<std::string, std::vector<ExperimentResult>> grouped;
  for (const auto& r : results) {
    grouped[r.spec.trace].push_back(r);
  }
  return grouped;
}

inline void print_scale_banner(const char* what) {
  const auto spec = Runner::default_spec();
  std::printf(
      "%s\n(device: %u blocks, trace scale: %.2f; set REPRO_FULL=1 for "
      "paper scale)\n\n",
      what, spec.total_blocks, spec.trace_scale);
}

// ---- micro-bench scaffolding (gc_bench, write_bench) -----------------------

/// Device sizes every micro-bench sweeps: candidate / cycle counts grow
/// with the block budget, which is what separates O(n) reference paths
/// from the indexed ones.
inline constexpr std::uint32_t kMicroSizes[] = {2048, 8192, 32768};

/// Minimum accumulated wall time before a timing loop may report.
inline constexpr double kMinMeasureSeconds = 0.05;

/// Accumulated call count + wall seconds for one timed loop.
struct Timing {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  [[nodiscard]] double calls_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(calls) / seconds : 0.0;
  }
  [[nodiscard]] double ns_per_call() const {
    return calls > 0 ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
  }
};

/// Scaled device config collapsed to a single plane: the whole block
/// budget forms one region, so per-plane candidate / cycle counts scale
/// with device size instead of plane count.
inline SsdConfig single_plane_config(std::uint32_t blocks) {
  SsdConfig cfg = SsdConfig::scaled(blocks);
  cfg.geometry.channels = 1;
  cfg.geometry.chips_per_channel = 1;
  cfg.geometry.dies_per_chip = 1;
  cfg.geometry.planes_per_die = 1;
  return cfg;
}

}  // namespace ppssd::bench
