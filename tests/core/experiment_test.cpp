#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "cache/ipu_scheme.h"
#include "core/runner.h"
#include "telemetry/attribution/attribution.h"

namespace ppssd::core {
namespace {

ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.scheme = "IPU";
  spec.trace = "ts0";
  spec.total_blocks = 1024;
  spec.trace_scale = 0.002;  // ~3.6k requests: fast
  return spec;
}

TEST(ExperimentSpec, KeyIsStableAndDistinct) {
  ExperimentSpec a = tiny_spec();
  ExperimentSpec b = tiny_spec();
  EXPECT_EQ(a.key(), b.key());
  b.scheme = "MGA";
  EXPECT_NE(a.key(), b.key());
  b = tiny_spec();
  b.pe_cycles = 8000;
  EXPECT_NE(a.key(), b.key());
  b = tiny_spec();
  b.options = cache::IpuScheme::Options{false, true, true}.to_scheme_options();
  EXPECT_NE(a.key(), b.key());
}

TEST(ExperimentSpec, KeyEncodingMatchesLegacyIpuFormat) {
  // The option-bag suffix must stay byte-identical to the pre-registry
  // "-isr<b>-lvl<b>-ipp<b>-cmb<b>" encoding: cache files keyed by it
  // survive the refactor.
  ExperimentSpec spec = tiny_spec();
  spec.options =
      cache::IpuScheme::Options{true, true, true, false}.to_scheme_options();
  EXPECT_EQ(spec.key(), "IPU-ts0-pe4000-b1024-s0.002-isr1-lvl1-ipp1-cmb0");
  spec.options.entries.clear();
  EXPECT_EQ(spec.key(), "IPU-ts0-pe4000-b1024-s0.002");
}

TEST(ExperimentResult, SerializeRoundTrip) {
  ExperimentResult r;
  r.spec = tiny_spec();
  r.avg_read_ms = 0.123;
  r.avg_write_ms = 0.456;
  r.avg_overall_ms = 0.4;
  r.read_ber = 2.84e-4;
  r.slc_subpages = 1000;
  r.mlc_subpages = 500;
  r.level_subpages[1] = 10;
  r.level_subpages[3] = 30;
  r.intra_page_updates = 77;
  r.gc_utilization = 0.61;
  r.slc_erases = 12;
  r.mlc_erases = 3;
  r.map_base_bytes = 1 << 20;
  r.map_extra_bytes = 1 << 10;
  r.slc_gc_count = 12;
  r.evicted_subpages = 200;
  r.chip_fg_seconds = 1.5;
  r.p50_read_ms = 0.1;
  r.p95_read_ms = 0.2;
  r.p99_write_ms = 0.9;
  r.p999_write_ms = 1.9;
  r.ctrl_events = 123456;
  r.wall_seconds = 2.5;
  r.wall_measure_seconds = 1.25;
  r.wall_reqs_per_sec = 8000.0;
  r.wall_ctrl_events_per_sec = 98764.8;

  const auto parsed = ExperimentResult::deserialize(r.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->avg_read_ms, r.avg_read_ms);
  EXPECT_DOUBLE_EQ(parsed->p50_read_ms, r.p50_read_ms);
  EXPECT_DOUBLE_EQ(parsed->p95_read_ms, r.p95_read_ms);
  EXPECT_DOUBLE_EQ(parsed->p99_write_ms, r.p99_write_ms);
  EXPECT_DOUBLE_EQ(parsed->p999_write_ms, r.p999_write_ms);
  EXPECT_EQ(parsed->ctrl_events, r.ctrl_events);
  EXPECT_DOUBLE_EQ(parsed->wall_seconds, r.wall_seconds);
  EXPECT_DOUBLE_EQ(parsed->wall_measure_seconds, r.wall_measure_seconds);
  EXPECT_DOUBLE_EQ(parsed->wall_reqs_per_sec, r.wall_reqs_per_sec);
  EXPECT_DOUBLE_EQ(parsed->wall_ctrl_events_per_sec,
                   r.wall_ctrl_events_per_sec);
  EXPECT_DOUBLE_EQ(parsed->read_ber, r.read_ber);
  EXPECT_EQ(parsed->slc_subpages, r.slc_subpages);
  EXPECT_EQ(parsed->level_subpages[3], r.level_subpages[3]);
  EXPECT_EQ(parsed->intra_page_updates, r.intra_page_updates);
  EXPECT_DOUBLE_EQ(parsed->gc_utilization, r.gc_utilization);
  EXPECT_EQ(parsed->mlc_erases, r.mlc_erases);
  EXPECT_EQ(parsed->map_base_bytes, r.map_base_bytes);
  EXPECT_DOUBLE_EQ(parsed->chip_fg_seconds, r.chip_fg_seconds);
}

TEST(ExperimentResult, PrefillSecondsRoundTripsAsAWallKey) {
  ExperimentResult r;
  r.wall_warmup_seconds = 0.75;
  r.wall_prefill_seconds = 0.375;
  const std::string text = r.serialize();
  // A wall_ key: the determinism checks and result digests skip it.
  EXPECT_NE(text.find("\nwall_prefill_seconds=0.375\n"), std::string::npos);
  const auto parsed = ExperimentResult::deserialize(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->wall_prefill_seconds, r.wall_prefill_seconds);
  EXPECT_DOUBLE_EQ(parsed->wall_warmup_seconds, r.wall_warmup_seconds);
}

TEST(ExperimentResult, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ExperimentResult::deserialize("").has_value());
  EXPECT_FALSE(ExperimentResult::deserialize("not a result").has_value());
  EXPECT_FALSE(
      ExperimentResult::deserialize("avg_read_ms=zzz\n").has_value());
}

TEST(ConfigFor, AppliesScaleAndWear) {
  ExperimentSpec spec = tiny_spec();
  spec.pe_cycles = 2000;
  const SsdConfig cfg = config_for(spec);
  EXPECT_EQ(cfg.geometry.total_blocks, 1024u);
  EXPECT_EQ(cfg.wear.initial_pe_cycles, 2000u);
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(RunExperiment, TinyCellEndToEnd) {
  const ExperimentResult r = run_experiment(tiny_spec());
  EXPECT_GT(r.reads + r.writes, 1000u);
  EXPECT_GT(r.avg_write_ms, 0.0);
  EXPECT_GT(r.read_ber, 0.0);
  EXPECT_GT(r.slc_subpages, 0u);
  EXPECT_GT(r.map_base_bytes, 0u);
  // Warm-up guarantees steady state: the SLC cache saw GC.
  EXPECT_GT(r.slc_gc_count, 0u);
  // Percentile ladder is ordered.
  EXPECT_LE(r.p50_write_ms, r.p95_write_ms);
  EXPECT_LE(r.p95_write_ms, r.p99_write_ms);
  EXPECT_LE(r.p99_write_ms, r.p999_write_ms);
  // Wall-clock throughput accounting is populated and consistent.
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.wall_measure_seconds, 0.0);
  EXPECT_GE(r.wall_seconds, r.wall_measure_seconds);
  EXPECT_GT(r.ctrl_events, 0u);
  EXPECT_GT(r.wall_reqs_per_sec, 0.0);
  EXPECT_GT(r.wall_ctrl_events_per_sec, 0.0);
}

TEST(RunExperiment, PrefillIsAShareOfWarmup) {
  const ExperimentResult r = run_experiment(tiny_spec());
  EXPECT_GT(r.wall_prefill_seconds, 0.0);
  EXPECT_LE(r.wall_prefill_seconds, r.wall_warmup_seconds);
}

TEST(RunExperiment, CtrlEventsDeterministic) {
  const ExperimentResult a = run_experiment(tiny_spec());
  const ExperimentResult b = run_experiment(tiny_spec());
  EXPECT_EQ(a.ctrl_events, b.ctrl_events);
}

TEST(RunExperiment, DeterministicAcrossRuns) {
  const ExperimentResult a = run_experiment(tiny_spec());
  const ExperimentResult b = run_experiment(tiny_spec());
  EXPECT_DOUBLE_EQ(a.avg_overall_ms, b.avg_overall_ms);
  EXPECT_EQ(a.slc_erases, b.slc_erases);
  EXPECT_DOUBLE_EQ(a.read_ber, b.read_ber);
}

TEST(RunExperiment, AblationOptionsChangeResults) {
  ExperimentSpec spec = tiny_spec();
  const ExperimentResult full = run_experiment(spec);
  spec.options =
      cache::IpuScheme::Options{true, true, false}.to_scheme_options();
  const ExperimentResult no_ipp = run_experiment(spec);
  EXPECT_GT(full.intra_page_updates, 0u);
  EXPECT_EQ(no_ipp.intra_page_updates, 0u);
}

TEST(Runner, CachesResultsOnDisk) {
  const std::string dir = ::testing::TempDir() + "ppssd_runner_cache";
  std::filesystem::remove_all(dir);
  Runner runner(dir);
  const ExperimentResult first = runner.run(tiny_spec());
  EXPECT_GT(first.wall_seconds, 0.0);
  // Second run loads from cache: identical metrics.
  const ExperimentResult second = runner.run(tiny_spec());
  EXPECT_DOUBLE_EQ(second.avg_overall_ms, first.avg_overall_ms);
  EXPECT_EQ(second.slc_erases, first.slc_erases);
  std::filesystem::remove_all(dir);
}

TEST(CellArtifactPath, InsertsTheCellBeforeTheExtension) {
  const ExperimentSpec spec = tiny_spec();
  const std::string cell = "IPU-ts0-pe4000-b1024-s0.002";
  ASSERT_EQ(spec.key(), cell);
  EXPECT_EQ(cell_artifact_path("run.ledger.bin", spec),
            "run.ledger." + cell + ".bin");
  EXPECT_EQ(cell_artifact_path("out/m.csv", spec), "out/m." + cell + ".csv");
  // No extension in the file name (a dot in a directory does not count).
  EXPECT_EQ(cell_artifact_path("a.d/trace", spec), "a.d/trace." + cell);
  EXPECT_EQ(cell_artifact_path(".hidden", spec), ".hidden." + cell);
  EXPECT_EQ(cell_artifact_path("", spec), "");  // artifact off
}

TEST(CellArtifactPath, CellsOfOneMatrixNeverShareAName) {
  const ExperimentSpec base = tiny_spec();
  std::vector<ExperimentSpec> specs(5, base);
  specs[1].options =
      cache::IpuScheme::Options{false, true, true}.to_scheme_options();
  specs[2].options =
      cache::IpuScheme::Options{true, false, true}.to_scheme_options();
  specs[3].pe_cycles = 8000;
  specs[4].trace_scale = 0.004;
  std::set<std::string> names;
  for (const auto& spec : specs) {
    names.insert(cell_artifact_path("run.ledger.bin", spec));
  }
  EXPECT_EQ(names.size(), specs.size());
}

TEST(Runner, MatrixRunLeavesOneLedgerPerCell) {
  const std::string base = ::testing::TempDir() + "ppssd_cells.ledger.bin";
  ExperimentSpec ipu = tiny_spec();
  ExperimentSpec mga = tiny_spec();
  mga.scheme = "MGA";
  const std::vector<ExperimentSpec> specs = {ipu, mga};
  for (const auto& spec : specs) {
    std::filesystem::remove(cell_artifact_path(base, spec));
  }
  std::filesystem::remove(base);

  ASSERT_EQ(setenv("PPSSD_ATTRIB", base.c_str(), 1), 0);
  Runner runner("");
  const std::vector<ExperimentResult> results = runner.run_all(specs, 1);
  unsetenv("PPSSD_ATTRIB");
  ASSERT_EQ(results.size(), 2u);

  // Each cell kept its own ledger, holding exactly its own requests.
  EXPECT_FALSE(std::filesystem::exists(base));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string path = cell_artifact_path(base, specs[i]);
    telemetry::attribution::LedgerFile file;
    std::string error;
    ASSERT_TRUE(telemetry::attribution::load_ledger(path, &file, &error))
        << path << ": " << error;
    EXPECT_GT(file.records.size(), 0u) << path;
    EXPECT_EQ(file.records.size(), results[i].reads + results[i].writes)
        << path;
    std::filesystem::remove(path);
  }
}

// Two IPU option variants on one trace (an ablation pair) used to share
// one `<scheme>-<trace>` ledger, the second overwriting the first.
TEST(Runner, IpuVariantsOnOneTraceLeaveOneLedgerEach) {
  const std::string dir = ::testing::TempDir() + "ppssd_variant_ledgers";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/l.bin";
  ExperimentSpec full = tiny_spec();
  full.options =
      cache::IpuScheme::Options{true, true, true, false}.to_scheme_options();
  ExperimentSpec greedy = full;
  greedy.options =
      cache::IpuScheme::Options{false, true, true, false}.to_scheme_options();
  const std::vector<ExperimentSpec> specs = {full, greedy};

  ASSERT_EQ(setenv("PPSSD_ATTRIB", base.c_str(), 1), 0);
  Runner runner("");
  const std::vector<ExperimentResult> results = runner.run_all(specs, 1);
  unsetenv("PPSSD_ATTRIB");
  ASSERT_EQ(results.size(), 2u);

  std::size_t ledgers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++ledgers;
  }
  EXPECT_EQ(ledgers, 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string path = cell_artifact_path(base, specs[i]);
    telemetry::attribution::LedgerFile file;
    std::string error;
    ASSERT_TRUE(telemetry::attribution::load_ledger(path, &file, &error))
        << path << ": " << error;
    EXPECT_EQ(file.records.size(), results[i].reads + results[i].writes)
        << path;
  }
  std::filesystem::remove_all(dir);
}

/// One cell's blame ledger, folded over its requests.
struct GcChannelShare {
  double avg_ms = 0.0;        // mean request latency
  double share = 0.0;         // GC channel waits / total latency
  double gc_chan_ms = 0.0;    // mean GC channel wait per request
};

GcChannelShare gc_channel_share(const ExperimentSpec& spec) {
  namespace attr = telemetry::attribution;
  const std::string base = ::testing::TempDir() + "ppssd_inversion.bin";
  const std::string path = cell_artifact_path(base, spec);
  std::filesystem::remove(path);
  EXPECT_EQ(setenv("PPSSD_ATTRIB", base.c_str(), 1), 0);
  const ExperimentResult r = run_experiment(spec);
  unsetenv("PPSSD_ATTRIB");
  attr::LedgerFile file;
  std::string error;
  EXPECT_TRUE(attr::load_ledger(path, &file, &error)) << path << ": " << error;
  std::filesystem::remove(path);
  EXPECT_EQ(file.records.size(), r.reads + r.writes);
  double total = 0.0;
  double gc_chan = 0.0;
  for (const attr::RequestBlame& rec : file.records) {
    total += static_cast<double>(rec.latency());
    gc_chan += static_cast<double>(
        rec.comp[static_cast<std::size_t>(attr::Component::kChanGcRead)] +
        rec.comp[static_cast<std::size_t>(attr::Component::kChanGcProgram)]);
  }
  const auto n = static_cast<double>(file.records.size());
  GcChannelShare out;
  out.avg_ms = r.avg_overall_ms;
  out.share = total > 0.0 ? gc_chan / total : 0.0;
  out.gc_chan_ms = gc_chan / n / 1e6;
  return out;
}

// The small-device inversion (ROADMAP item 1): at 2,048 blocks (4 chips,
// one per channel) and 1% of ts0, IPU is slower than Baseline, and the
// blame ledger says why. Measured: IPU 1.696 ms mean, 52.9% of it waits
// on channels held by GC reads and programs (0.897 ms per request);
// Baseline 0.520 ms, 16.5% (0.086 ms). The GC channel waits cover 69% of
// the 1.176 ms gap. A change that flips the inversion or moves its cause
// away from GC channel contention fails here.
TEST(SmallDeviceInversion, IpuWaitsOnGcChannelsMoreThanBaseline) {
  ExperimentSpec spec;
  spec.trace = "ts0";
  spec.total_blocks = 2048;
  spec.trace_scale = 0.01;
  spec.scheme = "IPU";
  const GcChannelShare ipu = gc_channel_share(spec);
  spec.scheme = "Baseline";
  const GcChannelShare base = gc_channel_share(spec);
  EXPECT_GT(ipu.avg_ms, base.avg_ms);
  EXPECT_GT(ipu.share, base.share);
  EXPECT_GT(ipu.gc_chan_ms - base.gc_chan_ms,
            0.5 * (ipu.avg_ms - base.avg_ms));
}

TEST(Runner, PaperMatrixShape) {
  EXPECT_EQ(Runner::paper_traces().size(), 6u);
  // The matrix enumerates the registry: all four schemes, paper order.
  const auto schemes = Runner::paper_schemes();
  ASSERT_EQ(schemes.size(), 4u);
  EXPECT_EQ(schemes[0], "Baseline");
  EXPECT_EQ(schemes[1], "MGA");
  EXPECT_EQ(schemes[2], "IPU");
  EXPECT_EQ(schemes[3], "IPS");
}

TEST(Runner, SchemesEnvFilterRestrictsMatrix) {
  ASSERT_EQ(setenv("PPSSD_SCHEMES", "ips , baseline", 1), 0);
  const auto filtered = Runner::paper_schemes();
  unsetenv("PPSSD_SCHEMES");
  // Registry order wins over env-var order; names are case-insensitive.
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0], "Baseline");
  EXPECT_EQ(filtered[1], "IPS");
}

TEST(RunnerDeathTest, SchemesEnvFilterRejectsUnknownName) {
  ASSERT_EQ(setenv("PPSSD_SCHEMES", "nope", 1), 0);
  EXPECT_DEATH(Runner::paper_schemes(), "unknown scheme 'nope'");
  unsetenv("PPSSD_SCHEMES");
}

TEST(Runner, DefaultSpecReadsGeometryKnobs) {
  ASSERT_EQ(setenv("PPSSD_BLOCKS", "2048", 1), 0);
  ASSERT_EQ(setenv("PPSSD_SCALE", "0.25", 1), 0);
  const ExperimentSpec spec = Runner::default_spec();
  unsetenv("PPSSD_BLOCKS");
  unsetenv("PPSSD_SCALE");
  EXPECT_EQ(spec.total_blocks, 2048u);
  EXPECT_EQ(spec.trace_scale, 0.25);
}

// A malformed knob ends the process with exit code 2 and one line naming
// the knob and its value, instead of an uncaught exception or a wrapped
// value.
TEST(RunnerDeathTest, DefaultSpecRejectsMalformedBlocks) {
  unsetenv("PPSSD_SCALE");
  for (const std::string bad :
       {"abc", "-5", "64x", " 64", "0x40", "0", "99999999999"}) {
    ASSERT_EQ(setenv("PPSSD_BLOCKS", bad.c_str(), 1), 0);
    EXPECT_EXIT(Runner::default_spec(), ::testing::ExitedWithCode(2),
                "invalid PPSSD_BLOCKS='" + bad + "'")
        << bad;
  }
  unsetenv("PPSSD_BLOCKS");
}

// A well-formed block count whose device cannot be built exits 2 with
// one line, instead of aborting in FlashArray or failing an allocation.
TEST(RunnerDeathTest, DefaultSpecRejectsImpossibleGeometry) {
  unsetenv("PPSSD_SCALE");
  for (const std::string bad : {"100", "3000000000"}) {
    ASSERT_EQ(setenv("PPSSD_BLOCKS", bad.c_str(), 1), 0);
    EXPECT_EXIT(Runner::default_spec(), ::testing::ExitedWithCode(2),
                "^ppssd: invalid PPSSD_BLOCKS='" + bad +
                    "': expected a block count giving a valid device "
                    "\\([^\n]*\\)\n$")
        << bad;
  }
  unsetenv("PPSSD_BLOCKS");
}

TEST(RunnerDeathTest, DefaultSpecRejectsMalformedScale) {
  unsetenv("PPSSD_BLOCKS");
  for (const std::string bad :
       {"abc", "0", "-1", "nan", "inf", "2x", "1e999", "1.5"}) {
    ASSERT_EQ(setenv("PPSSD_SCALE", bad.c_str(), 1), 0);
    EXPECT_EXIT(Runner::default_spec(), ::testing::ExitedWithCode(2),
                "invalid PPSSD_SCALE='" + bad + "'")
        << bad;
  }
  unsetenv("PPSSD_SCALE");
}

TEST(Runner, EnvJobsReadsKnob) {
  unsetenv("PPSSD_JOBS");
  EXPECT_EQ(Runner::env_jobs(), 1u);
  ASSERT_EQ(setenv("PPSSD_JOBS", "3", 1), 0);
  EXPECT_EQ(Runner::env_jobs(), 3u);
  unsetenv("PPSSD_JOBS");
}

TEST(RunnerDeathTest, EnvJobsRejectsMalformedValue) {
  for (const std::string bad : {"abc", "-2", "0", "4x", " 4", "1.5"}) {
    ASSERT_EQ(setenv("PPSSD_JOBS", bad.c_str(), 1), 0);
    EXPECT_EXIT((void)Runner::env_jobs(), ::testing::ExitedWithCode(2),
                "invalid PPSSD_JOBS='" + bad + "'")
        << bad;
    // run_all resolves the same knob when no job count is passed.
    EXPECT_EXIT((void)Runner("").run_all({}), ::testing::ExitedWithCode(2),
                "invalid PPSSD_JOBS='" + bad + "'")
        << bad;
  }
  unsetenv("PPSSD_JOBS");
}

// The reproduced orderings of Figures 5 and 8-11 (EXPERIMENTS.md), on
// the write-heavy ts0 and the read-heavy ads alike. Figure 5: of the
// paper's three schemes, Baseline has the slowest overall response time,
// and IPU writes faster than Baseline. The shape needs the default
// operating point's cache pressure (trace length against SLC capacity):
// 8,192 blocks at 12% length keeps it at half the default's cost. At
// 1,024 to 4,096 blocks and 1% to 4% length IPU is slower than Baseline
// on ts0. Figures 8-11 hold on the same three runs.
TEST(Experiment, OrderingsMatchFigures5And8To11) {
  for (const char* trace : {"ts0", "ads"}) {
    SCOPED_TRACE(trace);
    ExperimentSpec spec;
    spec.trace = trace;
    spec.total_blocks = 8192;
    spec.trace_scale = 0.12;
    spec.scheme = "Baseline";
    const ExperimentResult base = run_experiment(spec);
    spec.scheme = "MGA";
    const ExperimentResult mga = run_experiment(spec);
    spec.scheme = "IPU";
    const ExperimentResult ipu = run_experiment(spec);
    EXPECT_GT(base.avg_overall_ms, mga.avg_overall_ms);
    EXPECT_GT(base.avg_overall_ms, ipu.avg_overall_ms);
    EXPECT_LT(ipu.avg_write_ms, base.avg_write_ms);

    // Figure 8: MGA's multi-programmed pages raise the read BER; IPU's
    // stays within 1% of Baseline's.
    EXPECT_GT(mga.read_ber, ipu.read_ber);
    EXPECT_NEAR(ipu.read_ber, base.read_ber, 0.01 * base.read_ber);
    // Figure 9: GC victims are fuller under IPU than Baseline, and
    // fullest under MGA.
    EXPECT_LT(base.gc_utilization, ipu.gc_utilization);
    EXPECT_LT(ipu.gc_utilization, mga.gc_utilization);
    // Figure 10a: SLC erases fall from Baseline to IPU to MGA.
    EXPECT_GT(base.slc_erases, ipu.slc_erases);
    EXPECT_GT(ipu.slc_erases, mga.slc_erases);
    // Figure 11: MGA's mapping table grows by over a fifth, IPU's by
    // under 1%.
    EXPECT_GT(mga.map_normalized(), 1.20);
    EXPECT_LT(ipu.map_normalized(), 1.01);
  }
}

}  // namespace
}  // namespace ppssd::core
