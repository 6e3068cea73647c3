#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/units.h"

namespace ppssd::trace {

namespace {
/// Fixed slot size of one hot object: large enough for any request the
/// size model can produce, so objects never overlap.
constexpr std::uint64_t kHotObjectStride = 64 * kKiB;
/// Largest request the size model produces (subpages, 256 KiB): VDI-style
/// traces (lun2) need a long tail of large sequential writes to reach
/// their Table-3 mean sizes.
constexpr std::uint32_t kMaxSubpages = 64;
/// Estimated uniqueness of uniform cold writes (some collide).
constexpr double kColdUniqueness = 0.8;

std::uint64_t derive_hot_objects(const TraceProfile& p, double scale) {
  if (p.hot_objects > 0) return p.hot_objects;
  // Size the hot set from the *replayed* request count so the per-object
  // rewrite intensity (and thus the hot-address ratio) is invariant under
  // trace_scale — a scaled-down replay is a statistically faithful slice.
  const double writes =
      static_cast<double>(p.requests) * scale * p.write_ratio;
  const double hot_writes = writes * p.hot_request_fraction;
  const double cold_writes = writes - hot_writes;
  const double mean_sp = std::max(1.0, p.mean_write_kb / 4.0);
  const double cold_unique = cold_writes * mean_sp * kColdUniqueness;
  const double h = std::clamp(p.hot_write, 0.01, 0.95);
  double objects = h / (1.0 - h) * cold_unique / mean_sp;
  // Keep the zipf tail above Table 3's >= 4-write hotness threshold:
  // with alpha ~0.9 the tail rank receives ~1/3 of the mean, so ~16
  // writes per object on average keeps most objects hot.
  objects = std::min(objects, hot_writes / 16.0);
  return std::max<std::uint64_t>(64, static_cast<std::uint64_t>(objects));
}
}  // namespace

SyntheticWorkload::SyntheticWorkload(const TraceProfile& profile,
                                     std::uint64_t logical_bytes,
                                     double scale)
    : profile_(profile),
      footprint_bytes_(static_cast<std::uint64_t>(
          static_cast<double>(logical_bytes) * profile.footprint_fraction)),
      hot_objects_(derive_hot_objects(profile, scale)),
      rng_(profile.seed),
      zipf_([&] {
        // Hot region must leave at least half the footprint cold.
        const std::uint64_t max_objects =
            std::max<std::uint64_t>(1, footprint_bytes_ / 2 / kHotObjectStride);
        hot_objects_ = std::min(hot_objects_, max_objects);
        return ZipfSampler(hot_objects_, profile.zipf_alpha);
      }()),
      total_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(profile.requests) * scale))) {
  PPSSD_CHECK(scale > 0.0 && scale <= 1.0);
  PPSSD_CHECK(footprint_bytes_ >= 4 * kHotObjectStride);
  hot_region_bytes_ = hot_objects_ * kHotObjectStride;
  cold_region_bytes_ = footprint_bytes_ - hot_region_bytes_;

  // Mean of the >8K bucket implied by the overall mean write size.
  const auto& b = profile_.write_sizes;
  const double p3 = std::max(1e-6, 1.0 - b.le_4k - b.le_8k);
  const double m3_kb =
      (profile_.mean_write_kb - 4.0 * b.le_4k - 8.0 * b.le_8k) / p3;
  mean_gt8k_subpages_ = std::clamp(m3_kb / 4.0, 3.0, 64.0);

  hot_sizes_.resize(hot_objects_);
  for (std::uint64_t o = 0; o < hot_objects_; ++o) {
    hot_sizes_[o] = object_size_bytes(o);
  }
}

std::uint32_t SyntheticWorkload::sample_size_bytes(Rng& rng) const {
  const auto& b = profile_.write_sizes;
  const double u = rng.next_double();
  if (u < b.le_4k) return static_cast<std::uint32_t>(4 * kKiB);
  if (u < b.le_4k + b.le_8k) return static_cast<std::uint32_t>(8 * kKiB);
  // > 8 KiB tail: 3 + exponential, capped, so the bucket mean matches the
  // profile's overall mean write size.
  const double extra = rng.exponential(
      std::max(0.25, mean_gt8k_subpages_ - 3.0));
  const auto sp = std::min<std::uint32_t>(
      kMaxSubpages, 3 + static_cast<std::uint32_t>(extra));
  return static_cast<std::uint32_t>(sp * kSubpageBytes);
}

std::uint32_t SyntheticWorkload::object_size_bytes(std::uint64_t object) const {
  // A hot object is updated with a consistent request size (a DB page, a
  // log record): derive it deterministically from the object id so every
  // rewrite matches the original extent.
  std::uint64_t h = profile_.seed * 0x9e3779b97f4a7c15ULL + object;
  Rng rng(h);
  // Objects are bounded by their slot so rewrites never overlap
  // neighbours; the long large-request tail belongs to the cold stream.
  return std::min<std::uint32_t>(sample_size_bytes(rng),
                                 static_cast<std::uint32_t>(kHotObjectStride));
}

bool SyntheticWorkload::next(TraceRecord& out) {
  if (produced_ >= total_) return false;
  ++produced_;

  clock_ += static_cast<SimTime>(
      rng_.exponential(profile_.mean_interarrival_us * 1000.0));
  out.arrival = clock_;
  out.op = rng_.chance(profile_.write_ratio) ? OpType::kWrite : OpType::kRead;

  const bool hot = rng_.chance(profile_.hot_request_fraction);
  if (hot) {
    const std::uint64_t object = zipf_.sample(rng_);
    out.offset = object * kHotObjectStride;
    out.size = hot_sizes_[object];
    return true;
  }
  out.size = sample_size_bytes(rng_);
  if (out.op == OpType::kWrite || rng_.chance(0.7)) {
    const std::uint64_t slots =
        (cold_region_bytes_ - out.size) / kSubpageBytes;
    out.offset =
        hot_region_bytes_ + rng_.next_below(slots + 1) * kSubpageBytes;
  } else {
    const std::uint64_t slots = (footprint_bytes_ - out.size) / kSubpageBytes;
    out.offset = rng_.next_below(slots + 1) * kSubpageBytes;
  }
  return true;
}

std::size_t SyntheticWorkload::next_batch(std::span<TraceRecord> out) {
  // `next` devirtualizes here (final class), so the whole batch generates
  // in one call with the RNG state hot.
  std::size_t n = 0;
  while (n < out.size() && next(out[n])) ++n;
  return n;
}

void SyntheticWorkload::reset() {
  rng_ = Rng(profile_.seed);
  produced_ = 0;
  clock_ = 0;
}

}  // namespace ppssd::trace
