#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace ppssd {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: seeds the xoshiro state from a single 64-bit seed.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  PPSSD_CHECK(bound > 0);
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PPSSD_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double mean) {
  PPSSD_CHECK(mean > 0.0);
  double u = next_double();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

std::uint64_t Rng::poisson(double mean) {
  PPSSD_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = next_double();
  std::uint64_t n = 0;
  while (prod > limit) {
    prod *= next_double();
    ++n;
  }
  return n;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha) {
  PPSSD_CHECK(n > 0);
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf_[k] = sum;
  }
  for (auto& c : cdf_) {
    c /= sum;
  }
  cdf_.back() = 1.0;  // close the CDF exactly despite rounding

  // Bucket index: enough buckets that a typical bracket is a handful of
  // ranks (Zipf mass concentrates, so low buckets stay wider — the binary
  // search handles those), capped so construction stays trivial.
  buckets_ = std::min<std::uint64_t>(4096, std::bit_ceil(n));
  index_.resize(buckets_ + 1);
  for (std::uint64_t j = 0; j <= buckets_; ++j) {
    const double b =
        static_cast<double>(j) / static_cast<double>(buckets_);
    index_[j] = static_cast<std::uint64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), b) - cdf_.begin());
  }
  // u < 1.0 strictly, but keep the top bracket closed on a valid rank.
  if (index_[buckets_] >= n) index_[buckets_] = n - 1;
}

double ZipfSampler::pmf(std::uint64_t k) const {
  PPSSD_CHECK(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace ppssd
