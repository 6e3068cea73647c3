// The warm-start checkpoint → snapshot adapter
// (telemetry/introspect/warmstart_reader.h) re-derives BlockState /
// PlaneState from raw checkpoint bytes. The oracle is the live
// Snapshotter walking the very device the checkpoint was cut from: the
// synthetic frame must match the walker's frame field for field, or a
// layout drift in FlashArray::save / BlockManager::save has silently
// broken the tool path.
#include "telemetry/introspect/warmstart_reader.h"

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/warmstart_format.h"
#include "core/warmstart.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "telemetry/introspect/snapshotter.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::telemetry::introspect {
namespace {

namespace fs = std::filesystem;

constexpr const char* kKey = "IPS-ts0-pe4000-b1024-s0.002-reader-test";

/// A device with non-trivial state under the IPS scheme, so the frame
/// carries reprogram marks as well as wear and occupancy. Lands on the
/// same quiescent boundary run_experiment checkpoints at.
std::unique_ptr<sim::Ssd> make_warmed() {
  auto ssd = std::make_unique<sim::Ssd>(SsdConfig::scaled(1024), "IPS");
  trace::TraceProfile p = trace::profile_by_name("ts0");
  p.seed += 7777;
  trace::SyntheticWorkload workload(p, ssd->logical_bytes(), 0.002);
  sim::Replayer replayer(*ssd);
  replayer.replay(workload);
  ssd->scheme().reset_metrics();
  ssd->reset_timing();
  return ssd;
}

struct CheckpointAndOracle {
  std::string ckpt_path;
  SnapshotFile oracle;  // one stream, one live-walker frame at t=0
};

/// Store a checkpoint of a warmed device and capture the Snapshotter's
/// view of the same device as the comparison oracle.
CheckpointAndOracle make_fixture(const std::string& dir) {
  fs::remove_all(dir);
  auto ssd = make_warmed();

  const core::WarmStartCache cache(true, dir);
  EXPECT_TRUE(cache.store(kKey, *ssd));

  const std::string snap_path = dir + "/oracle_snapshots.bin";
  IntrospectOptions opts;
  opts.snapshot_every_ns = 1;  // tick-driven snapshots unused; finish() walks
  opts.snapshot_path = snap_path;
  Snapshotter snap(opts);
  EXPECT_TRUE(snap.bind(ssd->scheme()));
  snap.finish(0);

  CheckpointAndOracle out;
  out.ckpt_path = cache.path_for(kKey);
  std::string error;
  EXPECT_TRUE(load_snapshots(snap_path, &out.oracle, &error)) << error;
  return out;
}

class WarmstartReader : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ppssd_wsreader_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fixture_ = make_fixture(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  CheckpointAndOracle fixture_;
};

TEST_F(WarmstartReader, SniffsTheContainerMagic) {
  EXPECT_TRUE(is_warmstart_file(fixture_.ckpt_path));
  EXPECT_FALSE(is_warmstart_file(dir_ + "/oracle_snapshots.bin"));
  EXPECT_FALSE(is_warmstart_file(dir_ + "/no_such_file"));
}

TEST_F(WarmstartReader, FrameMatchesTheLiveSnapshotterFieldForField) {
  SnapshotFile converted;
  std::string error;
  ASSERT_TRUE(load_warmstart_as_snapshot(fixture_.ckpt_path, &converted,
                                         &error))
      << error;
  ASSERT_EQ(converted.streams.size(), 1u);
  ASSERT_EQ(fixture_.oracle.streams.size(), 1u);

  const SnapshotStream& got = converted.streams[0];
  const SnapshotStream& want = fixture_.oracle.streams[0];
  EXPECT_EQ(got.info.scheme, want.info.scheme);
  EXPECT_EQ(got.info.total_blocks, want.info.total_blocks);
  EXPECT_EQ(got.info.planes, want.info.planes);
  EXPECT_EQ(got.info.subpages_per_page, want.info.subpages_per_page);
  EXPECT_EQ(got.info.slc_blocks_per_plane, want.info.slc_blocks_per_plane);
  EXPECT_EQ(got.info.slc_gc_threshold, want.info.slc_gc_threshold);
  EXPECT_EQ(got.info.mlc_gc_threshold, want.info.mlc_gc_threshold);

  ASSERT_EQ(got.frames.size(), 1u);
  ASSERT_GE(want.frames.size(), 1u);
  const SnapshotFrame& gf = got.frames[0];
  const SnapshotFrame& wf = want.frames.back();
  EXPECT_EQ(gf.time, 0u);

  ASSERT_EQ(gf.blocks.size(), wf.blocks.size());
  std::uint64_t valid_total = 0;
  std::uint64_t reprogrammed_total = 0;
  for (std::size_t b = 0; b < gf.blocks.size(); ++b) {
    const BlockState& x = gf.blocks[b];
    const BlockState& y = wf.blocks[b];
    ASSERT_EQ(x.erase_count, y.erase_count) << "block " << b;
    ASSERT_EQ(x.valid_subpages, y.valid_subpages) << "block " << b;
    ASSERT_EQ(x.invalid_subpages, y.invalid_subpages) << "block " << b;
    ASSERT_EQ(x.write_frontier, y.write_frontier) << "block " << b;
    ASSERT_EQ(x.pages, y.pages) << "block " << b;
    ASSERT_EQ(x.reprogrammed_pages, y.reprogrammed_pages) << "block " << b;
    ASSERT_EQ(x.mode, y.mode) << "block " << b;
    ASSERT_EQ(x.level, y.level) << "block " << b;
    valid_total += x.valid_subpages;
    reprogrammed_total += x.reprogrammed_pages;
  }
  ASSERT_EQ(gf.planes.size(), wf.planes.size());
  for (std::size_t p = 0; p < gf.planes.size(); ++p) {
    ASSERT_EQ(gf.planes[p].free_slc, wf.planes[p].free_slc) << "plane " << p;
    ASSERT_EQ(gf.planes[p].free_mlc, wf.planes[p].free_mlc) << "plane " << p;
    ASSERT_EQ(gf.planes[p].pressure_slc, wf.planes[p].pressure_slc)
        << "plane " << p;
    ASSERT_EQ(gf.planes[p].pressure_mlc, wf.planes[p].pressure_mlc)
        << "plane " << p;
  }

  // The fixture must actually exercise the interesting rows: a blank
  // device would pass the comparison vacuously.
  EXPECT_GT(valid_total, 0u);
  EXPECT_GT(reprogrammed_total, 0u) << "IPS warm-up produced no reprogram "
                                       "marks; pick a longer burst";
}

TEST_F(WarmstartReader, RejectsCorruptOrTruncatedCheckpoints) {
  std::vector<char> bytes;
  {
    std::ifstream in(fixture_.ckpt_path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  const auto write_variant = [&](const std::vector<char>& v) {
    const std::string path = dir_ + "/variant.ckpt";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(v.data(), static_cast<std::streamsize>(v.size()));
    return path;
  };

  SnapshotFile sink;
  std::string error;

  std::vector<char> flipped = bytes;
  flipped[flipped.size() - 17] ^= 0x40;  // payload byte: checksum must trip
  EXPECT_FALSE(
      load_warmstart_as_snapshot(write_variant(flipped), &sink, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  std::vector<char> truncated(bytes.begin(),
                              bytes.begin() +
                                  static_cast<std::ptrdiff_t>(bytes.size() / 2));
  EXPECT_FALSE(
      load_warmstart_as_snapshot(write_variant(truncated), &sink, &error));

  std::vector<char> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(
      load_warmstart_as_snapshot(write_variant(bad_magic), &sink, &error));

  EXPECT_FALSE(
      load_warmstart_as_snapshot(dir_ + "/no_such_file", &sink, &error));
}

/// Run the device_inspect tool; returns its exit status (-1 if it did not
/// exit normally) and appends its stdout to `out`.
int run_device_inspect(const std::string& args, std::string* out) {
  const std::string cmd =
      std::string(PPSSD_DEVICE_INSPECT) + " " + args + " 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out->append(buf);
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(WarmstartReader, DeviceInspectVerifiesTheCheckpoint) {
  std::string out;
  EXPECT_EQ(run_device_inspect("'" + fixture_.ckpt_path + "' --verify", &out),
            0);
  EXPECT_NE(out.find("conservation: OK"), std::string::npos) << out;
}

TEST_F(WarmstartReader, VersionOneCheckpointIsRejectedCleanly) {
  // A checkpoint written before MLC block records lost their age
  // histogram: same bytes, container version 1. The reader must refuse
  // it up front rather than misparse the block records.
  std::vector<char> bytes;
  {
    std::ifstream in(fixture_.ckpt_path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(io::warmstart::kVersion, 4u);
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] = 1;  // container_version: the u32 right after the magic
  bytes[9] = bytes[10] = bytes[11] = 0;
  const std::string path = dir_ + "/v1.ckpt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  SnapshotFile sink;
  std::string error;
  EXPECT_TRUE(is_warmstart_file(path));
  EXPECT_FALSE(load_warmstart_as_snapshot(path, &sink, &error));
  EXPECT_NE(error.find("container version"), std::string::npos) << error;

  std::string out;
  EXPECT_EQ(run_device_inspect("'" + path + "' --verify", &out), 3)
      << "expected the malformed-input exit code";
}

}  // namespace
}  // namespace ppssd::telemetry::introspect
