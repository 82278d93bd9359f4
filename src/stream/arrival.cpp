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
  // (midpoint-sampled) intensity over the first i bins.
  std::array<double, kIntensityBins + 1> cdf{};
  for (std::size_t i = 0; i < kIntensityBins; ++i) {
    const double mid = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(kIntensityBins);
    cdf[i + 1] = cdf[i] + intensity(epoch, mid);
  }
  const double total = cdf[kIntensityBins];

  Rng rng = Rng(seed_)
                .fork(kStreamStreamTag)
                .fork(static_cast<std::uint64_t>(epoch))
                .fork(static_cast<std::uint64_t>(dc.value()));
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double target = rng.uniform_real() * total;
    // Inverse CDF: find the bin containing `target`, interpolate inside.
    const auto it = std::upper_bound(cdf.begin() + 1, cdf.end(), target);
    const std::size_t bin =
        std::min(static_cast<std::size_t>(it - cdf.begin()) - 1,
                 kIntensityBins - 1);
    const double within = (target - cdf[bin]) / (cdf[bin + 1] - cdf[bin]);
    const double frac =
        (static_cast<double>(bin) + within) /
        static_cast<double>(kIntensityBins);
    out.push_back(frac * StreamConfig::kEpochMs);
  }
  std::sort(out.begin(), out.end());
}

}  // namespace rfh
