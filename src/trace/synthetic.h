// Synthetic workload generation calibrated to the paper's trace tables.
//
// The six evaluation traces (ts0, wdev0, lun1, usr0, lun2, ads) are not
// redistributable, but the paper's results depend on them only through
// aggregate statistics: request count, write ratio, and mean write size
// (Table 3), the hot-address fraction (Table 3's "Hot write"), and the
// update-size bucket distribution (Table 1). SyntheticWorkload reproduces
// those statistics with a seeded two-population address model:
//
//  * a small set of hot "objects" (fixed-base extents re-written many
//    times, Zipf-weighted) — these drive the update traffic whose size
//    distribution Table 1 reports;
//  * a wide cold region written (mostly) once, uniformly.
//
// Reads draw from the same populations, so cache hits and MLC reads both
// occur. Arrivals are a Poisson process at the profile's mean rate.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/record.h"

namespace ppssd::trace {

struct SizeBuckets {
  double le_4k = 0.7;    // P(size <= 4 KiB)     (Table 1, col 1)
  double le_8k = 0.15;   // P(4 KiB < size <= 8 KiB)
  // remainder: P(size > 8 KiB)
};

struct TraceProfile {
  std::string name;
  std::uint64_t requests = 1'000'000;
  double write_ratio = 0.6;        // Table 3: Write R
  double mean_write_kb = 8.0;      // Table 3: Write SZ
  double hot_write = 0.4;          // Table 3: Hot write (addresses >= 4 reqs)
  SizeBuckets write_sizes;         // Table 1 buckets
  /// Fraction of write requests addressed at the hot-object population.
  double hot_request_fraction = 0.6;
  /// Number of distinct hot objects (0 = derive from hot_write).
  std::uint64_t hot_objects = 0;
  /// Zipf skew over hot objects.
  double zipf_alpha = 0.9;
  /// Fraction of the device's logical space the trace touches. High by
  /// default: the paper replays week-long server traces against an aged
  /// drive, i.e. most of the logical space is live.
  double footprint_fraction = 0.95;
  /// Mean arrival gap (Poisson process). Sized so a write-heavy trace
  /// loads the scaled device at moderate utilisation — queueing happens
  /// (GC stalls are visible) without saturating.
  double mean_interarrival_us = 400.0;
  std::uint64_t seed = 42;
};

class SyntheticWorkload final : public TraceSource {
 public:
  /// `logical_bytes` is the device's logical capacity; the address space
  /// is sized as footprint_fraction of it. `scale` in (0,1] shortens the
  /// trace proportionally (statistics are scale-invariant by design).
  SyntheticWorkload(const TraceProfile& profile, std::uint64_t logical_bytes,
                    double scale = 1.0);

  bool next(TraceRecord& out) override;
  /// Batched decode: identical stream to repeated next() (same RNG
  /// draws), but the generation loop is devirtualized.
  std::size_t next_batch(std::span<TraceRecord> out) override;
  void reset() override;
  [[nodiscard]] std::uint64_t expected_records() const override {
    return total_;
  }

  [[nodiscard]] const TraceProfile& profile() const { return profile_; }
  [[nodiscard]] std::uint64_t hot_object_count() const {
    return hot_objects_;
  }

  /// Sample a request size in bytes from the profile's bucket model
  /// (exposed for tests).
  std::uint32_t sample_size_bytes(Rng& rng) const;

  /// Fixed request size of a hot object (deterministic in object id).
  [[nodiscard]] std::uint32_t object_size_bytes(std::uint64_t object) const;

  /// Every hot object's object_size_bytes(), by object id: computed once
  /// in the constructor, read by each hot record.
  [[nodiscard]] std::span<const std::uint32_t> hot_object_sizes() const {
    return hot_sizes_;
  }

 private:

  TraceProfile profile_;
  std::uint64_t footprint_bytes_;
  std::uint64_t hot_objects_;
  std::uint64_t hot_region_bytes_;
  std::uint64_t cold_region_bytes_;
  double mean_gt8k_subpages_;
  std::vector<std::uint32_t> hot_sizes_;
  Rng rng_;
  ZipfSampler zipf_;
  std::uint64_t produced_ = 0;
  std::uint64_t total_;
  SimTime clock_ = 0;
};

}  // namespace ppssd::trace
