// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (query arrivals, requester
// mix, capacity heterogeneity, failure injection) is driven by seeded
// generators so that every figure in EXPERIMENTS.md is exactly
// reproducible. The engine is xoshiro256**, seeded via SplitMix64; both
// are implemented here so the library has no dependency on unspecified
// std::mt19937 stream details across standard libraries.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace rfh {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality 64-bit generator.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x52464831u /* "RFH1" */) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform_real() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform_real_range(double lo, double hi) noexcept;

  /// Poisson-distributed sample with the given mean (Knuth for small
  /// means, normal approximation with continuity correction above 64).
  std::uint64_t poisson(double mean) noexcept;

  /// Standard normal via Box-Muller (no cached spare: keeps the stream
  /// position a pure function of call count).
  double normal() noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order: a
  /// partial Fisher-Yates shuffle of [0, n), in O(k) time and memory.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k) noexcept;

  /// Derive an independent generator for a named subsystem. Mixing the tag
  /// into the seed keeps streams decoupled: drawing more samples in one
  /// subsystem never perturbs another.
  [[nodiscard]] Rng fork(std::uint64_t tag) const noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;
};

/// Discrete sampler over explicit nonnegative weights (CDF inversion).
///
/// The inversion is an exact guide table (Chen & Asau's indexed search):
/// 4n buckets over [0, total), bucket j holding the answer at its lower
/// edge, so a draw starts next to its answer and steps to it. The steps
/// check the answer itself — cdf[i-1] <= u < cdf[i] — so the index is
/// the one a binary search over the CDF returns for the same u, however
/// the bucket arithmetic rounds. Build a sampler once per weight vector
/// and keep it; construction is O(n).
class DiscreteSampler {
 public:
  explicit DiscreteSampler(std::span<const double> weights);

  /// Index drawn proportionally to its weight: index_of(uniform * total).
  std::size_t sample(Rng& rng) const noexcept {
    return index_of(rng.uniform_real() * cdf_.back());
  }

  /// The first index whose cumulative weight exceeds u (the last index
  /// when none does).
  [[nodiscard]] std::size_t index_of(double u) const noexcept {
    if (!(u < cdf_.back())) return cdf_.size() - 1;  // NaN lands here too
    const double bucket = u * buckets_per_unit_;  // at most size()
    std::size_t i = guide_.front();
    if (bucket > 0.0) {
      i = guide_[std::min(static_cast<std::size_t>(bucket),
                          guide_.size() - 1)];
    }
    while (i > 0 && cdf_[i - 1] > u) --i;
    while (cdf_[i] <= u) ++i;  // stops at the last entry, which exceeds u
    return i;
  }

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  /// Normalized probability of index i.
  [[nodiscard]] double probability(std::size_t i) const noexcept;

 private:
  std::vector<double> cdf_;  // cumulative, last element == total
  std::vector<std::uint32_t> guide_;  // bucket -> index at its lower edge
  double buckets_per_unit_ = 0.0;     // guide_.size() / total
};

/// Zipf(s) sampler over ranks 1..n (rank 1 most popular).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// 0-based rank sample (0 = hottest).
  std::size_t sample(Rng& rng) const noexcept { return inner_.sample(rng); }
  [[nodiscard]] std::size_t size() const noexcept { return inner_.size(); }
  [[nodiscard]] double probability(std::size_t rank0) const noexcept {
    return inner_.probability(rank0);
  }

 private:
  static std::vector<double> make_weights(std::size_t n, double exponent);
  DiscreteSampler inner_;
};

}  // namespace rfh
