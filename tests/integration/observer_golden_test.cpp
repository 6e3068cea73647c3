// Observer-output lock against committed digests.
//
// tests/data/observer_golden.txt holds one FNV-1a digest per line:
//
//   <scheme> <trace> <artifact> <digest>
//
// for every registered scheme on ts0 and ads, replayed by a bare Replayer
// on a 2048-block device whose MLC region is prefilled so that GC and
// erases run. Each run attaches a Telemetry bundle and a Snapshotter, and
// every artifact they write is digested byte for byte: the Chrome trace,
// the metrics dump, the time series, the attribution ledger, the flight
// ring and the snapshot stream. A change that reorders ledger calls,
// drops a span argument or moves a flight event changes a digest, even
// when every simulated result stays the same. On a mismatch the test
// prints every line it computed for the scheme, so an intended change to
// an observer is re-recorded by pasting those lines into the file.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "common/warmstart_format.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/introspect/snapshotter.h"
#include "telemetry/telemetry.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd {
namespace {

namespace intro = telemetry::introspect;

constexpr const char* kTraces[] = {"ts0", "ads"};
constexpr double kScale = 0.02;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string digest_of(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(io::warmstart::fnv1a(
                    reinterpret_cast<const std::uint8_t*>(bytes.data()),
                    bytes.size())));
  return buf;
}

std::vector<std::string> golden_lines_for(const std::string& scheme) {
  const std::string path =
      std::string(PPSSD_TEST_DATA_DIR) + "/observer_golden.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    if (fields >> name && name == scheme) lines.push_back(line);
  }
  return lines;
}

/// What one observed run covered, summed over the runs of a scheme.
struct Coverage {
  std::uint64_t reads = 0;
  std::uint64_t programs = 0;
  std::uint64_t reprograms = 0;
  std::uint64_t erases = 0;
  std::uint64_t gc_decisions = 0;
};

std::uint64_t counter_value(const telemetry::MetricsRegistry& reg,
                            const std::string& series) {
  for (const auto& s : reg.snapshot()) {
    if (s.series == series) return static_cast<std::uint64_t>(s.value);
  }
  return 0;
}

/// Replay `trace` on a prefilled device with every observer attached and
/// append one "<scheme> <trace> <artifact> <digest>" line per artifact.
void observed_run(const std::string& scheme, const char* trace,
                  std::vector<std::string>* lines, Coverage* cov) {
  const std::string base =
      ::testing::TempDir() + "observer_golden_" + scheme + "_" + trace;
  telemetry::TelemetryOptions topts;
  topts.trace_path = base + ".trace.json";
  topts.metrics_path = base + ".metrics.csv";
  topts.timeseries_path = base + ".timeseries.csv";
  topts.sample_every_requests = 500;
  topts.attribution_path = base + ".ledger.bin";
  intro::IntrospectOptions iopts;
  iopts.snapshot_every_ns = ms_to_ns(200.0);
  iopts.snapshot_path = base + ".snap.bin";
  iopts.flight_capacity = 1u << 16;
  iopts.flight_path = base + ".flight.bin";
  // The snapshot stream appends; start each run from an empty file.
  for (const std::string* p :
       {&topts.trace_path, &topts.metrics_path, &topts.timeseries_path,
        &topts.attribution_path, &iopts.snapshot_path, &iopts.flight_path}) {
    std::remove(p->c_str());
  }

  {
    sim::Ssd ssd(SsdConfig::scaled(2048), scheme);
    ssd.scheme().prefill_mlc(
        ssd.scheme().array().geometry().logical_subpages(),
        ssd.scheme().blocks().gc_threshold_blocks(CellMode::kMlc) + 3);
    ssd.reset_timing();

    telemetry::Telemetry tel(topts);
    intro::Snapshotter snap(iopts);
    ssd.attach_telemetry(&tel);
    ssd.attach_introspection(&snap);

    trace::SyntheticWorkload wl(trace::profile_by_name(trace),
                                ssd.logical_bytes(), kScale);
    sim::Replayer replayer(ssd);
    replayer.set_snapshotter(&snap);
    const sim::ReplayResult r = replayer.replay(wl);
    ssd.scheme().check_consistency();

    const auto& reg = tel.registry();
    for (const char* mode : {"slc", "mlc"}) {
      const std::string m = std::string(",mode=") + mode + "}";
      cov->reads += counter_value(reg, "flash_ops{kind=read" + m);
      cov->programs += counter_value(reg, "flash_ops{kind=program" + m);
    }
    cov->reprograms += counter_value(reg, "flash_ops{kind=reprogram}");
    cov->erases += counter_value(reg, "flash_ops{kind=erase}");
    snap.finish(r.makespan);
    tel.finish(r.makespan);
    ssd.attach_introspection(nullptr);
    ssd.attach_telemetry(nullptr);
  }

  intro::FlightFile flight;
  std::string error;
  ASSERT_TRUE(intro::load_flight(iopts.flight_path, &flight, &error)) << error;
  for (const auto& ev : flight.events) {
    cov->gc_decisions += ev.kind == intro::FlightEventKind::kGcDecision;
  }

  const std::string prefix = scheme + ' ' + trace + ' ';
  const std::pair<const char*, const std::string*> artifacts[] = {
      {"trace", &topts.trace_path},
      {"metrics", &topts.metrics_path},
      {"timeseries", &topts.timeseries_path},
      {"ledger", &topts.attribution_path},
      {"flight", &iopts.flight_path},
      {"snapshots", &iopts.snapshot_path},
  };
  for (const auto& [name, path] : artifacts) {
    const std::string bytes = slurp(*path);
    EXPECT_FALSE(bytes.empty()) << prefix << name << " wrote nothing";
    lines->push_back(prefix + name + ' ' + digest_of(bytes));
    std::remove(path->c_str());
  }
}

class ObserverGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(ObserverGolden, MatchesCommittedDigests) {
  const std::string scheme = GetParam();
  std::vector<std::string> actual;
  Coverage cov;
  for (const char* trace : kTraces) observed_run(scheme, trace, &actual, &cov);

  // The lock is only as wide as what the runs exercise.
  EXPECT_GT(cov.reads, 0u);
  EXPECT_GT(cov.programs, 0u);
  EXPECT_GT(cov.erases, 0u);
  EXPECT_GT(cov.gc_decisions, 0u);
  if (scheme == "IPS") {
    EXPECT_GT(cov.reprograms, 0u);
  }

  const std::vector<std::string> golden = golden_lines_for(scheme);
  std::string computed;
  for (const auto& line : actual) computed += line + '\n';
  EXPECT_EQ(actual, golden) << "computed digests for " << scheme << ":\n"
                            << computed;
}

// A fixed list: the golden was recorded for these four schemes.
INSTANTIATE_TEST_SUITE_P(Schemes, ObserverGolden,
                         ::testing::Values("Baseline", "MGA", "IPU", "IPS"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace ppssd
