#include "common/rng.h"

#include <cmath>

#include "common/assert.h"

namespace rfh {

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.next();
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  RFH_ASSERT(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) noexcept {
  RFH_ASSERT(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniform_real_range(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform_real();
}

double Rng::normal() noexcept {
  // Box-Muller; discard the second variate to keep the stream simple.
  double u1 = uniform_real();
  const double u2 = uniform_real();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

std::uint64_t Rng::poisson(double mean) noexcept {
  RFH_ASSERT(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's multiplicative method.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform_real();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the
  // large-lambda sweeps in the benchmark harness.
  const double x = mean + std::sqrt(mean) * normal() + 0.5;
  if (x <= 0.0) return 0;
  return static_cast<std::uint64_t>(x);
}

std::vector<std::size_t> Rng::sample_without_replacement(
    std::size_t n, std::size_t k) noexcept {
  RFH_ASSERT(k <= n);
  std::vector<std::size_t> out(k);
  if (k == 0) return out;
  // Partial Fisher-Yates over a virtual iota(n): slot x holds x unless a
  // swap displaced it, and only displaced slots are stored, in an
  // open-addressing map of at least 2k entries (each draw stores at most
  // one), so the cost is O(k) whatever n is. Same draws, same output as
  // shuffling a dense iota(n).
  constexpr std::size_t kEmpty = ~std::size_t{0};
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * k) ++bits;
  struct Slot {
    std::size_t index = kEmpty;
    std::size_t value = 0;
  };
  std::vector<Slot> displaced(std::size_t{1} << bits);
  const std::size_t mask = displaced.size() - 1;
  const auto find = [&](std::size_t index) -> Slot& {
    std::size_t h = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ULL) >>
        (64 - bits));
    while (displaced[h].index != kEmpty && displaced[h].index != index) {
      h = (h + 1) & mask;
    }
    return displaced[h];
  };
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(uniform(static_cast<std::uint64_t>(n - i)));
    const Slot& at_i = find(i);
    const std::size_t value_i = at_i.index == kEmpty ? i : at_i.value;
    Slot& at_j = find(j);
    out[i] = at_j.index == kEmpty ? j : at_j.value;
    // Slot i is never read again; slot j now holds slot i's value.
    at_j = Slot{j, value_i};
  }
  return out;
}

Rng Rng::fork(std::uint64_t tag) const noexcept {
  SplitMix64 sm(seed_ ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
  return Rng(sm.next());
}

DiscreteSampler::DiscreteSampler(std::span<const double> weights) {
  RFH_ASSERT(!weights.empty());
  RFH_ASSERT(weights.size() < std::size_t{1} << 30);
  cdf_.reserve(weights.size());
  double total = 0.0;
  for (const double w : weights) {
    RFH_ASSERT_MSG(w >= 0.0, "weights must be nonnegative");
    total += w;
    cdf_.push_back(total);
  }
  RFH_ASSERT_MSG(total > 0.0, "at least one weight must be positive");
  guide_.resize(4 * cdf_.size());
  const auto buckets = static_cast<double>(guide_.size());
  buckets_per_unit_ = buckets / total;
  std::uint32_t i = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    const double edge = static_cast<double>(j) / buckets * total;
    while (i + 1 < cdf_.size() && cdf_[i] <= edge) ++i;
    guide_[j] = i;
  }
}

double DiscreteSampler::probability(std::size_t i) const noexcept {
  RFH_ASSERT(i < cdf_.size());
  const double prev = i == 0 ? 0.0 : cdf_[i - 1];
  return (cdf_[i] - prev) / cdf_.back();
}

std::vector<double> ZipfSampler::make_weights(std::size_t n, double exponent) {
  RFH_ASSERT(n > 0);
  RFH_ASSERT(exponent >= 0.0);
  std::vector<double> w(n);
  for (std::size_t rank = 1; rank <= n; ++rank) {
    w[rank - 1] = 1.0 / std::pow(static_cast<double>(rank), exponent);
  }
  return w;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent)
    : inner_(make_weights(n, exponent)) {}

}  // namespace rfh
