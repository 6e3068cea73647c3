// Huge host writes: a request far larger than the GC reserve must not
// starve garbage collection. Scheme::host_write places a request in
// bounded chunks and runs the GC loop between them, so a stream of
// 16 MiB writes on a small device runs to completion with consistency
// OK on every scheme.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/msr_parser.h"

namespace ppssd {
namespace {

/// Writes an MSR-format CSV of `requests` back-to-back writes of `bytes`
/// each, at 4 KiB-aligned random offsets below `logical_bytes`.
std::string write_huge_trace(const std::string& name, std::uint64_t requests,
                             std::uint64_t bytes,
                             std::uint64_t logical_bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  Rng rng(2021);
  const std::uint64_t slots = (logical_bytes - bytes) / kSubpageBytes;
  for (std::uint64_t i = 0; i < requests; ++i) {
    // FILETIME ticks are 100 ns: one request every millisecond.
    const std::uint64_t ts = 128166372000000000ull + i * 10'000;
    out << ts << ",srv,0,Write," << rng.next_below(slots) * kSubpageBytes
        << ',' << bytes << ",0\n";
  }
  return path;
}

class HugeWrites : public ::testing::TestWithParam<const char*> {};

TEST_P(HugeWrites, SixteenMiBWritesOnSmallDeviceStayConsistent) {
  sim::Ssd ssd(SsdConfig::scaled(2048), GetParam());
  const std::string path =
      write_huge_trace(std::string("ppssd_huge_") + GetParam() + ".csv", 400,
                       16 * kMiB, ssd.logical_bytes());
  trace::MsrTraceParser parser(path);
  sim::Replayer replayer(ssd);
  const sim::ReplayResult result = replayer.replay(parser);
  std::remove(path.c_str());

  EXPECT_EQ(result.requests, 400u);
  EXPECT_EQ(result.latency.write_count(), 400u);
  ssd.scheme().check_consistency();
}

INSTANTIATE_TEST_SUITE_P(Schemes, HugeWrites,
                         ::testing::Values("Baseline", "MGA", "IPU", "IPS"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace ppssd
