// Huge host writes: a request far larger than the GC reserve must not
// starve garbage collection. Scheme::host_write places a request in
// bounded chunks and runs the GC loop between them, so a stream of
// 16 MiB writes on a small device runs to completion with consistency
// OK on every scheme, and every written subpage reads back at the
// version a per-LSN shadow expects.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>

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

  EXPECT_EQ(result.requests, 400u);
  EXPECT_EQ(result.latency.write_count(), 400u);
  ssd.scheme().check_consistency();

  // Read-your-writes: each write bumps the expected version of the LSNs
  // it covers, and the version stored in each one's mapped slot must
  // match.
  std::unordered_map<Lsn, std::uint32_t> shadow;
  parser.reset();
  trace::TraceRecord rec;
  while (parser.next(rec)) {
    const sim::Ssd::LsnRange r = ssd.resolve(rec.offset, rec.size);
    for (std::uint32_t i = 0; i < r.count; ++i) ++shadow[r.lsn + i];
  }
  std::remove(path.c_str());
  ASSERT_FALSE(shadow.empty());
  for (const auto& [lsn, version] : shadow) {
    ASSERT_TRUE(ssd.scheme().device_map().mapped(lsn)) << "lsn " << lsn;
    ASSERT_EQ(ssd.scheme().version_of(lsn), version) << "lsn " << lsn;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, HugeWrites,
                         ::testing::Values("Baseline", "MGA", "IPU", "IPS"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace ppssd
