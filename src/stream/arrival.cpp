#include "stream/arrival.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "common/assert.h"
#include "common/rng.h"
#include "sim/engine.h"  // kStreamStreamTag
#include "stream/config.h"

namespace rfh {

namespace {

/// Relative arrival intensity at fraction `frac` in [0, 1) of `epoch`.
/// The phase is continuous across epochs: frac advances the sine within
/// the epoch so arrival density ramps smoothly instead of stair-stepping.
/// With kDiurnalAmplitude < 1 it stays positive, so the inverse CDF is
/// strictly increasing.
double intensity(Epoch epoch, double frac) noexcept {
  const double phase =
      (static_cast<double>(epoch % StreamConfig::kDiurnalPeriod) + frac) /
      static_cast<double>(StreamConfig::kDiurnalPeriod);
  return 1.0 + StreamConfig::kDiurnalAmplitude *
                   std::sin(2.0 * std::numbers::pi * phase);
}

}  // namespace

void ArrivalGenerator::timestamps_into(Epoch epoch, DatacenterId dc,
                                       std::size_t n,
                                       std::vector<double>& out) const {
  out.clear();
  if (n == 0) return;
  RFH_ASSERT(dc.valid());

  // Cumulative intensity over the bin grid: cdf[i] = integral of the
  // (midpoint-sampled) intensity over the first i bins. It depends on the
  // epoch only through epoch % kDiurnalPeriod: one table per phase, once.
  using Cdf = std::array<double, kIntensityBins + 1>;
  static const auto phase_cdfs = [] {
    std::array<Cdf, StreamConfig::kDiurnalPeriod> tables{};
    for (Epoch phase = 0; phase < StreamConfig::kDiurnalPeriod; ++phase) {
      for (std::size_t i = 0; i < kIntensityBins; ++i) {
        const double mid = (static_cast<double>(i) + 0.5) /
                           static_cast<double>(kIntensityBins);
        tables[phase][i + 1] = tables[phase][i] + intensity(phase, mid);
      }
    }
    return tables;
  }();
  const Cdf& cdf = phase_cdfs[epoch % StreamConfig::kDiurnalPeriod];
  const double total = cdf[kIntensityBins];

  Rng rng = Rng(seed_)
                .fork(kStreamStreamTag)
                .fork(static_cast<std::uint64_t>(epoch))
                .fork(static_cast<std::uint64_t>(dc.value()));
  // Draw every target, sort them, and map them through the inverse CDF
  // with a bin index that only moves forward. The map is monotone in the
  // target, so this is the sorted vector of the mapped draws, bit for bit.
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(rng.uniform_real() * total);
  }
  std::sort(out.begin(), out.end());
  std::size_t bin = 0;  // the last bin whose lower edge is <= the target
  for (double& target : out) {
    while (bin + 1 < kIntensityBins && cdf[bin + 1] <= target) ++bin;
    const double within = (target - cdf[bin]) / (cdf[bin + 1] - cdf[bin]);
    const double frac =
        (static_cast<double>(bin) + within) /
        static_cast<double>(kIntensityBins);
    target = frac * StreamConfig::kEpochMs;
  }
}

}  // namespace rfh
