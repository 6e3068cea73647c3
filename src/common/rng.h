// Deterministic random number generation for workload synthesis.
//
// xoshiro256** (Blackman & Vigna) — fast, high quality, and stable across
// platforms so every trace profile is reproducible from its seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ppssd {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound) via Lemire's method. bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Exponential with mean `mean` (> 0).
  double exponential(double mean);

  /// Standard normal via Box-Muller (no cached spare: keeps state minimal).
  double normal(double mean, double stddev);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  std::uint64_t poisson(double mean);

 private:
  std::array<std::uint64_t, 4> state_;
};

/// Zipf(α) sampler over ranks [0, n): precomputes the CDF once and samples
/// by inverse transform, deterministic.
///
/// sample() brackets the draw with a precomputed bucket index (bucket j
/// stores lower_bound(cdf, j/K)) and finishes with a branchless binary
/// search over the bracket, so a draw costs O(log(n/K)) well-predicted
/// steps instead of a full O(log n) lower_bound. The result is defined to
/// be *identical* to the plain lower_bound over the whole CDF for every u,
/// so workload streams are unchanged (tests/common/rng_test.cpp holds that
/// oracle and locks the two together).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha);

  std::uint64_t sample(Rng& rng) const {
    const double u = rng.next_double();
    // Bucket of u, corrected for the float rounding of u * K (the cast
    // can land one bucket off either way near a boundary).
    std::uint64_t j = static_cast<std::uint64_t>(u * buckets_);
    if (j >= buckets_) j = buckets_ - 1;
    if (u < boundary(j)) {
      --j;
    } else if (u >= boundary(j + 1)) {
      ++j;
    }
    // The answer lies in [index_[j], index_[j + 1]] by CDF monotonicity.
    std::uint64_t lo = index_[j];
    std::uint64_t len = index_[j + 1] - lo + 1;
    while (len > 1) {
      const std::uint64_t half = len / 2;
      const bool right = cdf_[lo + half - 1] < u;
      lo += right ? half : 0;
      len = right ? len - half : half;
    }
    return lo;
  }

  [[nodiscard]] std::uint64_t size() const { return cdf_.size(); }

  /// Probability mass of rank k (for tests).
  [[nodiscard]] double pmf(std::uint64_t k) const;

 private:
  [[nodiscard]] double boundary(std::uint64_t j) const {
    return static_cast<double>(j) / static_cast<double>(buckets_);
  }

  std::vector<double> cdf_;
  /// index_[j] = lower_bound(cdf_, j / buckets_); index_[buckets_] covers
  /// u -> 1.0 exactly. Size buckets_ + 1.
  std::vector<std::uint64_t> index_;
  std::uint64_t buckets_ = 1;
};

}  // namespace ppssd
