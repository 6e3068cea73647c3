#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace ppssd {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1'000'003ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.next_below(kBound)];
  }
  const double expected = static_cast<double>(kDraws) / kBound;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.10);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.exponential(5.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 5.0, 0.1);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(29);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(31);
  for (const double mean : {0.5, 4.0, 100.0}) {
    double sum = 0.0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / kDraws, mean, std::max(0.05, mean * 0.05));
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(37);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0.0;
  for (std::uint64_t k = 0; k < zipf.size(); ++k) {
    sum += zipf.pmf(k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfSampler, RankZeroMostLikely) {
  ZipfSampler zipf(1000, 0.9);
  for (std::uint64_t k = 1; k < 10; ++k) {
    EXPECT_GT(zipf.pmf(0), zipf.pmf(k));
  }
}

TEST(ZipfSampler, SamplesMatchPmf) {
  ZipfSampler zipf(50, 1.2);
  Rng rng(41);
  std::vector<int> counts(50, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[zipf.sample(rng)];
  }
  for (std::uint64_t k = 0; k < 5; ++k) {
    const double expected = zipf.pmf(k) * kDraws;
    EXPECT_NEAR(counts[k], expected, expected * 0.05 + 10);
  }
}

TEST(ZipfSampler, SingleElement) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.sample(rng), 0u);
  }
}

// The sampler's oracle: the same normalised CDF, drawn by a plain
// lower_bound over all of it.
class ReferenceZipf {
 public:
  ReferenceZipf(std::uint64_t n, double alpha) : cdf_(n) {
    double sum = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
      cdf_[k] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    cdf_.back() = 1.0;
  }
  std::uint64_t sample(Rng& rng) const {
    const double u = rng.next_double();
    return static_cast<std::uint64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// The bucket-indexed fast path must reproduce the plain lower_bound
// inverse-CDF draw for draw: workload streams are part of the simulator's
// determinism contract.
TEST(ZipfSampler, FastPathMatchesReferenceStream) {
  for (const auto& [n, alpha] : std::initializer_list<
           std::pair<std::uint64_t, double>>{{1, 1.0},
                                             {2, 0.5},
                                             {7, 1.3},
                                             {1000, 0.9},
                                             {4096, 1.0},
                                             {100000, 1.2}}) {
    ZipfSampler zipf(n, alpha);
    const ReferenceZipf ref(n, alpha);
    for (const std::uint64_t seed : {12345ull, 7ull, 0ull, 999999937ull}) {
      Rng fast_rng(seed);
      Rng ref_rng(seed);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(zipf.sample(fast_rng), ref.sample(ref_rng))
            << "n=" << n << " alpha=" << alpha << " seed=" << seed
            << " draw=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace ppssd
