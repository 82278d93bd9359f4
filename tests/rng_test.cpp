#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "topology/world.h"

namespace rfh {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  // Forking must depend only on the original seed + tag, not on how many
  // values the parent has drawn.
  Rng parent1(7);
  Rng parent2(7);
  parent2.next();
  parent2.next();
  Rng f1 = parent1.fork(42);
  Rng f2 = parent2.fork(42);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(f1.next(), f2.next());
  }
}

TEST(Rng, ForkDifferentTagsDiverge) {
  Rng parent(7);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(5);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformBoundOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform(1), 0u);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.uniform(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(6);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInHalfOpenUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRealMeanNearHalf) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform_real();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.poisson(0.0), 0u);
  }
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = static_cast<double>(rng.poisson(mean));
    sum += v;
    sum2 += v * v;
  }
  const double m = sum / n;
  const double var = sum2 / n - m * m;
  // Poisson: mean == variance == lambda. 5-sigma-ish statistical slack.
  EXPECT_NEAR(m, mean, 5.0 * std::sqrt(mean / n) + 0.55);
  EXPECT_NEAR(var, mean, 0.15 * mean + 0.5);
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMeanTest,
                         ::testing::Values(0.3, 1.0, 4.7, 30.0, 63.9, 64.1,
                                           300.0, 2000.0));

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(12);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> orig = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(13);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  const std::vector<int> orig = v;
  rng.shuffle(std::span<int>(v));
  EXPECT_NE(v, orig);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(14);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(15);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementEmpty) {
  Rng rng(16);
  EXPECT_TRUE(rng.sample_without_replacement(10, 0).empty());
}

TEST(Rng, SampleWithoutReplacementMatchesDenseFisherYates) {
  // The sparse shuffle must reproduce the dense partial Fisher-Yates over
  // iota(n) draw for draw, and leave the generator at the same position.
  const auto dense = [](Rng& rng, std::size_t n, std::size_t k) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.uniform(n - i));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
  };
  const std::pair<std::size_t, std::size_t> cases[] = {
      {1, 0}, {10, 10}, {100, 30}, {10000, 50}};
  for (const auto& [n, k] : cases) {
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
      Rng sparse_rng(seed);
      Rng dense_rng(seed);
      ASSERT_EQ(sparse_rng.sample_without_replacement(n, k),
                dense(dense_rng, n, k))
          << "n " << n << " k " << k << " seed " << seed;
      EXPECT_EQ(sparse_rng.next(), dense_rng.next());
    }
  }
}

TEST(DiscreteSampler, ProportionsMatchWeights) {
  const std::vector<double> weights{1.0, 3.0, 6.0};
  DiscreteSampler sampler(weights);
  Rng rng(17);
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    ++counts[sampler.sample(rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(DiscreteSampler, ZeroWeightNeverSampled) {
  const std::vector<double> weights{0.0, 1.0, 0.0};
  DiscreteSampler sampler(weights);
  Rng rng(18);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sampler.sample(rng), 1u);
  }
}

TEST(DiscreteSampler, ProbabilityNormalizes) {
  const std::vector<double> weights{2.0, 3.0, 5.0};
  DiscreteSampler sampler(weights);
  double total = 0.0;
  for (std::size_t i = 0; i < sampler.size(); ++i) {
    total += sampler.probability(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(sampler.probability(0), 0.2, 1e-12);
}

/// The first index whose cumulative weight exceeds u, the last when none
/// does: the binary search the guide table must reproduce exactly.
std::size_t binary_search_index(const std::vector<double>& cdf, double u) {
  std::size_t lo = 0;
  std::size_t hi = cdf.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] > u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::vector<double> zipf_weights(std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t rank = 1; rank <= n; ++rank) {
    w[rank - 1] = 1.0 / std::pow(static_cast<double>(rank), 0.8);
  }
  return w;
}

/// The requester weights of the paper's flash-crowd stages: 80% of the
/// queries from three datacenters (H,I,J -> A,B,C -> E,F,G), the rest
/// spread over the other seven.
std::vector<std::vector<double>> flash_stage_weights() {
  const World world = build_paper_world();
  std::vector<std::vector<double>> stages;
  for (const char* hot : {"HIJ", "ABC", "EFG"}) {
    std::vector<double> w(10, 0.2 / 7.0);
    for (const char* c = hot; *c != '\0'; ++c) {
      w[world.by_letter(*c).value()] = 0.8 / 3.0;
    }
    stages.push_back(w);
  }
  return stages;
}

TEST(DiscreteSampler, IndexOfEqualsBinarySearchEverywhere) {
  std::vector<std::vector<double>> cases = {
      {0.0, 0.0, 1.0, 0.0, 0.0, 2.5, 0.0, 3.0, 0.0, 0.0},  // zeros everywhere
      {3.5},                                               // one weight
      {0.0, 0.0, 7.0, 0.0},                                // one positive
      {1e-300, 1e300, 1e-300, 2.0},                        // extreme range
      {1e300, 1e-300},
      std::vector<double>(10, 1.0),  // all equal
      std::vector<double>(97, 0.1),
      zipf_weights(64),
      zipf_weights(800),
      zipf_weights(8000),
  };
  for (std::vector<double>& stage : flash_stage_weights()) {
    cases.push_back(std::move(stage));
  }
  Rng rng(99);
  for (const std::vector<double>& weights : cases) {
    SCOPED_TRACE("n = " + std::to_string(weights.size()));
    const DiscreteSampler sampler(weights);
    std::vector<double> cdf;
    double total = 0.0;
    for (const double w : weights) cdf.push_back(total += w);
    std::vector<double> probes{0.0, std::nan("")};
    for (const double c : cdf) {
      probes.push_back(c);
      probes.push_back(std::nextafter(c, HUGE_VAL));
      probes.push_back(std::nextafter(c, -HUGE_VAL));
    }
    for (int i = 0; i < 1'000'000; ++i) {
      probes.push_back(rng.uniform_real() * total);
    }
    std::size_t mismatches = 0;
    for (const double u : probes) {
      if (sampler.index_of(u) != binary_search_index(cdf, u)) {
        ADD_FAILURE() << "u = " << u << ": index_of " << sampler.index_of(u)
                      << ", binary search " << binary_search_index(cdf, u);
        if (++mismatches == 10) break;
      }
    }
    // sample() is index_of on the same single draw.
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(sampler.sample(a), sampler.index_of(b.uniform_real() * total));
    }
  }
}

TEST(DiscreteSamplerDeath, RejectsEmptyAndNegative) {
  EXPECT_DEATH(DiscreteSampler(std::vector<double>{}), "");
  EXPECT_DEATH(DiscreteSampler(std::vector<double>{1.0, -0.5}), "");
  EXPECT_DEATH(DiscreteSampler(std::vector<double>{0.0, 0.0}), "");
}

class ZipfTest : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(ZipfTest, ProbabilitiesAreMonotoneAndNormalized) {
  const auto [n, s] = GetParam();
  ZipfSampler zipf(n, s);
  double total = 0.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    total += zipf.probability(rank);
    if (rank > 0 && s > 0.0) {
      EXPECT_GE(zipf.probability(rank - 1), zipf.probability(rank));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(ZipfTest, HeadToTailRatioMatchesPowerLaw) {
  const auto [n, s] = GetParam();
  ZipfSampler zipf(n, s);
  const double expected =
      std::pow(static_cast<double>(n), s);  // p(rank 1)/p(rank n)
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(n - 1), expected,
              1e-6 * expected);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndExponents, ZipfTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 64, 1000),
                       ::testing::Values(0.0, 0.5, 0.8, 1.2)));

TEST(ZipfSampler, UniformWhenExponentZero) {
  ZipfSampler zipf(10, 0.0);
  for (std::size_t rank = 0; rank < 10; ++rank) {
    EXPECT_NEAR(zipf.probability(rank), 0.1, 1e-12);
  }
}

}  // namespace
}  // namespace rfh
