// Warm-start checkpoint cache (DESIGN.md §14): container round-trip,
// miss semantics for every flavor of bad checkpoint file — missing,
// truncated, corrupt, stale version, foreign key, mismatched geometry —
// and end-to-end result equivalence of cold vs warm run_experiment.
#include "core/warmstart.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/state_io.h"
#include "common/warmstart_format.h"
#include "core/experiment.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::core {
namespace {

namespace fs = std::filesystem;

constexpr const char* kKey = "IPU-ts0-pe4000-b1024-s0.002-test";

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

/// A small device carrying non-trivial state: replay a short write-heavy
/// synthetic burst and land on the quiescent boundary.
std::unique_ptr<sim::Ssd> make_warmed() {
  auto ssd = std::make_unique<sim::Ssd>(SsdConfig::scaled(1024), "IPU");
  trace::TraceProfile p = trace::profile_by_name("ts0");
  p.seed += 7777;
  trace::SyntheticWorkload workload(p, ssd->logical_bytes(), 0.002);
  sim::Replayer replayer(*ssd);
  replayer.replay(workload);
  ssd->scheme().reset_metrics();
  ssd->reset_timing();
  return ssd;
}

std::vector<std::uint8_t> snapshot(const sim::Ssd& ssd) {
  io::StateSink sink;
  ssd.save(sink);
  return sink.take();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open());
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(WarmStartCache, DisabledCacheMissesAndStoresNothing) {
  const WarmStartCache off;
  EXPECT_FALSE(off.enabled());
  auto ssd = make_warmed();
  EXPECT_FALSE(off.store(kKey, *ssd));
  EXPECT_FALSE(off.try_restore(kKey, *ssd));
}

TEST(WarmStartCache, FromEnvReadsKnobs) {
  const std::string dir = fresh_dir("ppssd_ws_env");
  ASSERT_EQ(setenv("PPSSD_WARMSTART", "1", 1), 0);
  ASSERT_EQ(setenv("PPSSD_WARMSTART_DIR", dir.c_str(), 1), 0);
  const WarmStartCache on = WarmStartCache::from_env();
  unsetenv("PPSSD_WARMSTART");
  unsetenv("PPSSD_WARMSTART_DIR");
  EXPECT_TRUE(on.enabled());
  EXPECT_EQ(on.path_for("k"),
            dir + "/wrm-v" + std::to_string(io::warmstart::kVersion) +
                "-k.ckpt");
  EXPECT_FALSE(WarmStartCache::from_env().enabled());
}

TEST(WarmStartCache, StoreThenRestoreRoundTripsByteExact) {
  const WarmStartCache cache(true, fresh_dir("ppssd_ws_roundtrip"));
  auto cold = make_warmed();
  EXPECT_TRUE(cache.store(kKey, *cold));
  EXPECT_TRUE(fs::exists(cache.path_for(kKey)));
  // Second store: first writer already won.
  EXPECT_FALSE(cache.store(kKey, *cold));

  sim::Ssd warm(SsdConfig::scaled(1024), "IPU");
  ASSERT_TRUE(cache.try_restore(kKey, warm));
  EXPECT_EQ(snapshot(warm), snapshot(*cold));
  warm.scheme().check_consistency();
}

TEST(WarmStartCache, MissingFileIsASilentMiss) {
  const WarmStartCache cache(true, fresh_dir("ppssd_ws_missing"));
  sim::Ssd ssd(SsdConfig::scaled(1024), "IPU");
  const std::vector<std::uint8_t> before = snapshot(ssd);
  EXPECT_FALSE(cache.try_restore(kKey, ssd));
  EXPECT_EQ(snapshot(ssd), before);  // device untouched on a miss
}

class WarmStartCacheCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs the fixture's tests concurrently.
    cache_ = WarmStartCache(
        true, fresh_dir(std::string("ppssd_ws_corrupt_") +
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    auto cold = make_warmed();
    ASSERT_TRUE(cache_.store(kKey, *cold));
    path_ = cache_.path_for(kKey);
    good_ = read_bytes(path_);
    ASSERT_GT(good_.size(), 64u);
  }

  /// The corrupted file must miss and leave a fresh device untouched.
  void expect_miss() {
    sim::Ssd ssd(SsdConfig::scaled(1024), "IPU");
    const std::vector<std::uint8_t> before = snapshot(ssd);
    EXPECT_FALSE(cache_.try_restore(kKey, ssd));
    EXPECT_EQ(snapshot(ssd), before);
  }

  WarmStartCache cache_;
  std::string path_;
  std::vector<std::uint8_t> good_;
};

TEST_F(WarmStartCacheCorruption, BadMagicIsAMiss) {
  std::vector<std::uint8_t> bad = good_;
  bad[0] ^= 0xff;
  write_bytes(path_, bad);
  expect_miss();
}

TEST_F(WarmStartCacheCorruption, StaleContainerVersionIsAMiss) {
  std::vector<std::uint8_t> bad = good_;
  bad[8] ^= 0xff;  // container_version is the u32 right after the magic
  write_bytes(path_, bad);
  expect_miss();
}

TEST_F(WarmStartCacheCorruption, VersionOneCheckpointIsAMiss) {
  // Version 1 wrote an age histogram into every block record; later
  // versions write one for SLC-mode blocks only. An old file under the
  // current name must miss at the container check, not misparse block
  // records.
  ASSERT_EQ(io::warmstart::kVersion, 4u);
  std::vector<std::uint8_t> old = good_;
  old[8] = 1;  // container_version, little-endian u32 after the magic
  old[9] = old[10] = old[11] = 0;
  write_bytes(path_, old);
  expect_miss();
}

TEST_F(WarmStartCacheCorruption, VersionTwoCheckpointIsAMiss) {
  // Version 2 kept a separate version row and full-length write-time and
  // disturb-snapshot rows; version 3 folds versions into the device-map
  // entries and keeps those rows for SLC-mode slots only. A version-2
  // file must miss at the container check, not misparse the rows.
  ASSERT_EQ(io::warmstart::kVersion, 4u);
  std::vector<std::uint8_t> old = good_;
  old[8] = 2;  // container_version, little-endian u32 after the magic
  old[9] = old[10] = old[11] = 0;
  write_bytes(path_, old);
  expect_miss();
}

TEST_F(WarmStartCacheCorruption, VersionThreeCheckpointIsAMiss) {
  // Version 3 streamed u8 state, u32 owner and u32 version rows and an
  // 8-byte (slot code, version) map entry; version 4 writes the 4-byte
  // slot records and map entries as they stand, with the version in the
  // entry's top bits. A version-3 file must miss at the container check,
  // not abort in a layer restore.
  ASSERT_EQ(io::warmstart::kVersion, 4u);
  std::vector<std::uint8_t> old = good_;
  old[8] = 3;  // container_version, little-endian u32 after the magic
  old[9] = old[10] = old[11] = 0;
  write_bytes(path_, old);
  expect_miss();
}

TEST_F(WarmStartCacheCorruption, TruncationAnywhereIsAMiss) {
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{21}, good_.size() / 2,
        good_.size() - 1}) {
    std::vector<std::uint8_t> bad(good_.begin(),
                                  good_.begin() + static_cast<long>(keep));
    write_bytes(path_, bad);
    expect_miss();
  }
}

TEST_F(WarmStartCacheCorruption, TrailingGarbageIsAMiss) {
  std::vector<std::uint8_t> bad = good_;
  bad.push_back(0x5a);
  write_bytes(path_, bad);
  expect_miss();
}

TEST_F(WarmStartCacheCorruption, PayloadBitFlipFailsTheChecksum) {
  std::vector<std::uint8_t> bad = good_;
  bad[bad.size() - 17] ^= 0x01;  // deep inside the payload
  write_bytes(path_, bad);
  expect_miss();
}

TEST_F(WarmStartCacheCorruption, ForeignKeyIsAMiss) {
  // A checkpoint copied (or hash-collided) onto another key's path is
  // rejected by the embedded key, not trusted by file name.
  const std::string other = "MGA-ts1-pe4000-b1024-s0.002-test";
  fs::copy_file(path_, cache_.path_for(other));
  sim::Ssd ssd(SsdConfig::scaled(1024), "IPU");
  EXPECT_FALSE(cache_.try_restore(other, ssd));
}

TEST_F(WarmStartCacheCorruption, GeometryMismatchIsAMiss) {
  // Same key, differently shaped device (edited config): the geometry
  // header gate must miss before the payload touches the device.
  sim::Ssd bigger(SsdConfig::scaled(2048), "IPU");
  EXPECT_FALSE(cache_.try_restore(kKey, bigger));
  sim::Ssd other_scheme(SsdConfig::scaled(1024), "MGA");
  EXPECT_FALSE(cache_.try_restore(kKey, other_scheme));
}

TEST_F(WarmStartCacheCorruption, IntactCheckpointStillRestores) {
  // Sanity for the fixture itself: the unmodified file hits.
  sim::Ssd ssd(SsdConfig::scaled(1024), "IPU");
  EXPECT_TRUE(cache_.try_restore(kKey, ssd));
}

// ---- end-to-end through run_experiment ---------------------------------

ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.scheme = "IPU";
  spec.trace = "ts0";
  spec.total_blocks = 1024;
  spec.trace_scale = 0.002;
  return spec;
}

/// Everything but the wall_* keys (wall-clock-derived, nondeterministic).
std::string strip_wall(const std::string& serialized) {
  std::istringstream in(serialized);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("wall_", 0) != 0) out += line + '\n';
  }
  return out;
}

TEST(RunExperimentWarmStart, ColdAndWarmRunsAreByteIdentical) {
  const std::string dir = fresh_dir("ppssd_ws_e2e");
  ASSERT_EQ(setenv("PPSSD_WARMSTART", "1", 1), 0);
  ASSERT_EQ(setenv("PPSSD_WARMSTART_DIR", dir.c_str(), 1), 0);
  const ExperimentResult cold = run_experiment(tiny_spec());  // writes ckpt
  const ExperimentResult warm = run_experiment(tiny_spec());  // restores
  unsetenv("PPSSD_WARMSTART");
  unsetenv("PPSSD_WARMSTART_DIR");

  EXPECT_TRUE(fs::exists(WarmStartCache(true, dir).path_for(
      tiny_spec().key())));
  EXPECT_EQ(strip_wall(warm.serialize()), strip_wall(cold.serialize()));

  // And both match a run with warm-start off entirely.
  const ExperimentResult off = run_experiment(tiny_spec());
  EXPECT_EQ(strip_wall(off.serialize()), strip_wall(cold.serialize()));
  fs::remove_all(dir);
}

TEST(RunExperimentWarmStart, HitReportsNoPrefillTime) {
  const std::string dir = fresh_dir("ppssd_ws_prefill");
  ASSERT_EQ(setenv("PPSSD_WARMSTART", "1", 1), 0);
  ASSERT_EQ(setenv("PPSSD_WARMSTART_DIR", dir.c_str(), 1), 0);
  const ExperimentResult cold = run_experiment(tiny_spec());  // writes ckpt
  const ExperimentResult warm = run_experiment(tiny_spec());  // restores
  unsetenv("PPSSD_WARMSTART");
  unsetenv("PPSSD_WARMSTART_DIR");
  EXPECT_GT(cold.wall_prefill_seconds, 0.0);
  EXPECT_EQ(warm.wall_prefill_seconds, 0.0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ppssd::core
