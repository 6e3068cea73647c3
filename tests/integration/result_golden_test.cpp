// Simulated-result lock against committed digests.
//
// tests/data/result_golden.txt holds one FNV-1a digest per line:
//
//   cell <scheme> <trace> <digest>    run_experiment at 1024 blocks,
//                                     scale 0.01, P/E 4000: the whole
//                                     serialize() record minus wall_* lines
//   replay <scheme> <trace> <digest>  a bare Replayer run with
//                                     gc_interleave_ops = 0: latency,
//                                     makespan, queue depth, controller
//                                     usage and command count
//   checkpoint <scheme> <digest>      the Ssd::save bytes after a short
//                                     ts0 replay: device state plus the
//                                     side tables no simulated number
//                                     reads (IPU offsets, MGA second
//                                     level, open pages, deferred ops)
//
// <scheme> is a registry name, or a name plus one option for the
// variants bench/ablations and the IPS tests run ("IPU+isr0" is IPU with
// option isr=0). A variant locks its cells on ts0 and usr0 and its
// checkpoint.
//
// Any change to a simulated number changes a digest. On a mismatch the
// test prints every line it computed for the scheme, so an intended
// change to the model is re-recorded by pasting those lines into the file.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/registry.h"
#include "common/state_io.h"
#include "common/warmstart_format.h"
#include "core/experiment.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd {
namespace {

constexpr const char* kTraces[] = {"ts0", "wdev0", "lun1",
                                   "usr0", "lun2", "ads"};
constexpr const char* kReplayTraces[] = {"ts0", "usr0", "ads"};
constexpr const char* kVariantTraces[] = {"ts0", "usr0"};

/// "IPU+isr0" -> scheme "IPU" with option isr=0; a bare name has none.
struct Variant {
  std::string scheme;
  cache::SchemeOptions options;
};

Variant parse_variant(const std::string& name) {
  const std::size_t plus = name.find('+');
  Variant v{name.substr(0, plus), {}};
  if (plus != std::string::npos) {
    const std::string opt = name.substr(plus + 1);
    v.options.set(opt.substr(0, opt.size() - 1), opt.substr(opt.size() - 1));
  }
  return v;
}

std::string digest_of(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(io::warmstart::fnv1a(
                    reinterpret_cast<const std::uint8_t*>(text.data()),
                    text.size())));
  return buf;
}

std::vector<std::string> golden_lines_for(const std::string& scheme) {
  const std::string path =
      std::string(PPSSD_TEST_DATA_DIR) + "/result_golden.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::string name;
    if (fields >> kind >> name && name == scheme) lines.push_back(line);
  }
  return lines;
}

/// serialize() minus the wall-clock lines, which differ run to run.
std::string cell_digest(const std::string& name, const char* trace) {
  const Variant v = parse_variant(name);
  core::ExperimentSpec spec;
  spec.scheme = v.scheme;
  spec.options = v.options;
  spec.trace = trace;
  spec.pe_cycles = 4000;
  spec.total_blocks = 1024;
  spec.trace_scale = 0.01;
  std::istringstream in(core::run_experiment(spec).serialize());
  std::string kept;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("wall_", 0) != 0) kept += line + '\n';
  }
  return digest_of(kept);
}

/// A prefilled device replaying the trace with every background op
/// scheduled inline with its request (gc_interleave_ops = 0).
std::string replay_digest(const std::string& scheme, const char* trace) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 0;
  sim::Ssd ssd(cfg, scheme);
  const auto& geom = ssd.scheme().array().geometry();
  ssd.scheme().prefill_mlc(
      geom.logical_subpages(),
      ssd.scheme().blocks().gc_threshold_blocks(CellMode::kMlc) + 3);
  ssd.reset_timing();
  trace::SyntheticWorkload wl(trace::profile_by_name(trace),
                              ssd.logical_bytes(), 0.02);
  sim::Replayer replayer(ssd);
  const sim::ReplayResult r = replayer.replay(wl);
  ssd.scheme().check_consistency();

  const auto& u = ssd.controller().usage();
  std::ostringstream os;
  os.precision(17);
  os << r.requests << ' ' << r.latency.read_count() << ' '
     << r.latency.write_count() << ' ' << r.latency.avg_read_ms() << ' '
     << r.latency.avg_write_ms() << ' ' << r.latency.read_p99_ms() << ' '
     << r.latency.write_p99_ms() << ' ' << r.makespan << ' '
     << r.avg_queue_depth << ' ' << r.avg_queue_depth_at_arrival << ' '
     << r.max_queue_depth << ' ' << u.read_fg << ' ' << u.read_bg << ' '
     << u.program_fg << ' ' << u.program_bg << ' ' << u.erase_bg << ' '
     << ssd.controller().scheduled_ops();
  return digest_of(os.str());
}

/// The whole device checkpoint after a short ts0 replay on a prefilled
/// device with the default GC interleave.
std::string checkpoint_digest(const std::string& name) {
  const Variant v = parse_variant(name);
  const SsdConfig cfg = SsdConfig::scaled(1024);
  sim::Ssd ssd(cfg, cache::make_scheme(v.scheme, cfg, v.options));
  const auto& geom = ssd.scheme().array().geometry();
  ssd.scheme().prefill_mlc(
      geom.logical_subpages(),
      ssd.scheme().blocks().gc_threshold_blocks(CellMode::kMlc) + 3);
  ssd.reset_timing();
  trace::SyntheticWorkload wl(trace::profile_by_name("ts0"),
                              ssd.logical_bytes(), 0.02);
  sim::Replayer replayer(ssd);
  replayer.replay(wl);
  ssd.scheme().check_consistency();
  io::StateSink sink;
  ssd.save(sink);
  const std::vector<std::uint8_t>& bytes = sink.buffer();
  return digest_of(std::string(bytes.begin(), bytes.end()));
}

class ResultGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(ResultGolden, MatchesCommittedDigests) {
  const std::string scheme = GetParam();
  const bool variant = scheme.find('+') != std::string::npos;
  std::vector<std::string> actual;
  if (variant) {
    for (const char* trace : kVariantTraces) {
      actual.push_back("cell " + scheme + ' ' + trace + ' ' +
                       cell_digest(scheme, trace));
    }
  } else {
    for (const char* trace : kTraces) {
      actual.push_back("cell " + scheme + ' ' + trace + ' ' +
                       cell_digest(scheme, trace));
    }
    for (const char* trace : kReplayTraces) {
      actual.push_back("replay " + scheme + ' ' + trace + ' ' +
                       replay_digest(scheme, trace));
    }
  }
  actual.push_back("checkpoint " + scheme + ' ' + checkpoint_digest(scheme));

  const std::vector<std::string> golden = golden_lines_for(scheme);
  std::string computed;
  for (const auto& line : actual) computed += line + '\n';
  EXPECT_EQ(actual, golden) << "computed digests for " << scheme << ":\n"
                            << computed;
}

// A fixed list: the golden was recorded for these four schemes.
INSTANTIATE_TEST_SUITE_P(Schemes, ResultGolden,
                         ::testing::Values("Baseline", "MGA", "IPU", "IPS"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// The option sets bench/ablations and the IPS tests run; each differs
// from its scheme's defaults in one option.
INSTANTIATE_TEST_SUITE_P(Variants, ResultGolden,
                         ::testing::Values("IPU+isr0", "IPU+lvl0", "IPU+ipp0",
                                           "IPU+cmb1", "IPS+rpg0"),
                         [](const auto& info) {
                           std::string name = info.param;
                           name[name.find('+')] = '_';
                           return name;
                         });

}  // namespace
}  // namespace ppssd
