#include "perf/bench_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "telemetry/json.h"

namespace ppssd::perf {
namespace {

BenchReport sample_report() {
  BenchReport r;
  r.blocks = 2048;
  r.scale = 0.02;
  r.jobs = 4;
  BenchCell a;
  a.key = "IPU-ts0-pe4000-b2048-s0.02";
  a.scheme = "IPU";
  a.trace = "ts0";
  a.requests = 20000;
  a.ctrl_events = 123456;
  a.wall_seconds = 1.25;
  a.reqs_per_sec = 16000.0;
  a.ctrl_events_per_sec = 98764.8;
  a.phases = {0.05, 0.4, 0.75, 0.05};
  BenchCell b = a;
  b.key = "Baseline-ts0-pe4000-b2048-s0.02";
  b.scheme = "Baseline";
  b.reqs_per_sec = 25000.0;
  r.cells = {a, b};
  return r;
}

TEST(BenchReport, JsonRoundTripPreservesEveryField) {
  const BenchReport r = sample_report();
  const std::string json = r.to_json();
  // Must be valid JSON by the same parser users of the artifact get.
  ASSERT_TRUE(telemetry::json::parse(json).has_value()) << json;

  const auto parsed = BenchReport::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->blocks, r.blocks);
  EXPECT_DOUBLE_EQ(parsed->scale, r.scale);
  EXPECT_EQ(parsed->jobs, r.jobs);
  ASSERT_EQ(parsed->cells.size(), 2u);
  const BenchCell& c = parsed->cells[0];
  EXPECT_EQ(c.key, r.cells[0].key);
  EXPECT_EQ(c.scheme, "IPU");
  EXPECT_EQ(c.trace, "ts0");
  EXPECT_EQ(c.requests, 20000u);
  EXPECT_EQ(c.ctrl_events, 123456u);
  EXPECT_DOUBLE_EQ(c.wall_seconds, 1.25);
  EXPECT_DOUBLE_EQ(c.reqs_per_sec, 16000.0);
  EXPECT_DOUBLE_EQ(c.ctrl_events_per_sec, 98764.8);
  EXPECT_DOUBLE_EQ(c.phases.setup_seconds, 0.05);
  EXPECT_DOUBLE_EQ(c.phases.warmup_seconds, 0.4);
  EXPECT_DOUBLE_EQ(c.phases.measure_seconds, 0.75);
  EXPECT_DOUBLE_EQ(c.phases.report_seconds, 0.05);
}

TEST(BenchReport, RejectsWrongSchemaAndMalformedCells) {
  EXPECT_FALSE(BenchReport::from_json("").has_value());
  EXPECT_FALSE(BenchReport::from_json("[]").has_value());
  EXPECT_FALSE(BenchReport::from_json("{\"schema\":99,\"cells\":[]}")
                   .has_value());
  // A cell without a key has no identity to diff by.
  EXPECT_FALSE(BenchReport::from_json(
                   "{\"schema\":1,\"cells\":[{\"requests\":5}]}")
                   .has_value());
}

TEST(BenchReport, TotalsAggregateCells) {
  const BenchReport r = sample_report();
  EXPECT_DOUBLE_EQ(r.total_wall_seconds(), 2.5);
  EXPECT_NEAR(r.geomean_reqs_per_sec(), 20000.0, 1.0);
  EXPECT_DOUBLE_EQ(BenchReport{}.geomean_reqs_per_sec(), 0.0);
}

TEST(BenchReport, SaveLoadRoundTripsViaDisk) {
  const std::string path = ::testing::TempDir() + "bench_report_test.json";
  const BenchReport r = sample_report();
  ASSERT_TRUE(r.save(path));
  const auto loaded = BenchReport::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cells.size(), 2u);
  EXPECT_EQ(loaded->to_json(), r.to_json());
  std::remove(path.c_str());
  EXPECT_FALSE(BenchReport::load(path).has_value());
}

TEST(CompareBench, FlagsOnlyDropsBeyondTolerance) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.cells[0].reqs_per_sec = 15000.0;  // -6.25%: inside 10% tolerance
  cur.cells[1].reqs_per_sec = 20000.0;  // -20%: regression

  const BenchComparison cmp = compare_bench(base, cur, 0.10);
  ASSERT_EQ(cmp.cells.size(), 2u);
  EXPECT_FALSE(cmp.cells[0].regression);
  EXPECT_NEAR(cmp.cells[0].ratio, 0.9375, 1e-9);
  EXPECT_TRUE(cmp.cells[1].regression);
  EXPECT_NEAR(cmp.cells[1].ratio, 0.8, 1e-9);
  EXPECT_TRUE(cmp.has_regression());
  EXPECT_NEAR(cmp.worst_ratio(), 0.8, 1e-9);
  EXPECT_NE(cmp.render().find("REGRESSION"), std::string::npos);
}

TEST(CompareBench, SpeedupsAndWideToleranceAreClean) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.cells[0].reqs_per_sec *= 1.5;
  const BenchComparison cmp = compare_bench(base, cur, 0.25);
  EXPECT_FALSE(cmp.has_regression());
  EXPECT_DOUBLE_EQ(cmp.worst_ratio(), 1.0);
  EXPECT_NE(cmp.render().find("ok"), std::string::npos);
}

TEST(CompareBench, UnmatchedCellsAreReportedNotFailed) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.cells.erase(cur.cells.begin());  // IPU cell missing from current
  BenchCell fresh;
  fresh.key = "MGA-ts0-pe4000-b2048-s0.02";
  fresh.reqs_per_sec = 100.0;
  cur.cells.push_back(fresh);

  const BenchComparison cmp = compare_bench(base, cur, 0.10);
  EXPECT_EQ(cmp.cells.size(), 1u);  // only the matched Baseline cell
  ASSERT_EQ(cmp.only_in_baseline.size(), 1u);
  EXPECT_EQ(cmp.only_in_baseline[0], base.cells[0].key);
  ASSERT_EQ(cmp.only_in_current.size(), 1u);
  EXPECT_EQ(cmp.only_in_current[0], fresh.key);
  EXPECT_FALSE(cmp.has_regression());
}

TEST(CompareBench, PhaseSlowdownGatesEvenWhenThroughputHolds) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  // Throughput unchanged, but warmup wall time tripled (0.4s -> 1.2s):
  // exactly the shape of a warm-start cache that stopped hitting.
  cur.cells[0].phases.warmup_seconds = 1.2;
  const BenchComparison cmp = compare_bench(base, cur, 0.10);
  ASSERT_EQ(cmp.cells.size(), 2u);
  EXPECT_FALSE(cmp.cells[0].regression);
  EXPECT_TRUE(cmp.cells[0].warmup.regression);
  EXPECT_NEAR(cmp.cells[0].warmup.ratio, 3.0, 1e-9);
  EXPECT_FALSE(cmp.cells[0].setup.regression);
  EXPECT_FALSE(cmp.cells[0].measure.regression);
  EXPECT_TRUE(cmp.cells[0].phase_regression());
  EXPECT_FALSE(cmp.has_regression());
  EXPECT_TRUE(cmp.has_phase_regression());
  EXPECT_NE(cmp.render().find("phase warmup"), std::string::npos);
  EXPECT_NE(cmp.render().find("phase REGRESSION"), std::string::npos);
}

TEST(CompareBench, PhaseGateIsTwiceTheCellTolerance) {
  // Phases are raw wall times, so they gate at 2x the throughput
  // tolerance: +15% warmup noise passes at tolerance 0.10, +25% gates.
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.cells[0].phases.warmup_seconds = 0.4 * 1.15;
  EXPECT_FALSE(compare_bench(base, cur, 0.10).has_phase_regression());
  cur.cells[0].phases.warmup_seconds = 0.4 * 1.25;
  EXPECT_TRUE(compare_bench(base, cur, 0.10).has_phase_regression());
}

TEST(CompareBench, PhaseSpeedupAndTinyPhasesAreClean) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.cells[0].phases.warmup_seconds = 0.01;  // warm-start hit: much faster
  // Sub-floor noise on both sides never gates, however large the ratio.
  cur.cells[1].phases.setup_seconds = 0.04;
  BenchReport base2 = base;
  base2.cells[1].phases.setup_seconds = 0.001;
  const BenchComparison cmp = compare_bench(base2, cur, 0.10);
  EXPECT_FALSE(cmp.has_phase_regression());
  // Above the floor the same ratio would gate.
  BenchReport cur2 = base;
  cur2.cells[1].phases.setup_seconds = 0.2;
  EXPECT_TRUE(compare_bench(base, cur2, 0.10).has_phase_regression());
}

TEST(CompareBench, ZeroBaselineRateNeverDividesOrRegresses) {
  BenchReport base = sample_report();
  base.cells[0].reqs_per_sec = 0.0;
  const BenchComparison cmp = compare_bench(base, sample_report(), 0.10);
  ASSERT_EQ(cmp.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(cmp.cells[0].ratio, 0.0);
  EXPECT_FALSE(cmp.cells[0].regression);
}

}  // namespace
}  // namespace ppssd::perf
