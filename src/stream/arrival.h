// Open-loop arrival-timestamp generation.
//
// The batch workload decides *how many* queries each (partition,
// requester-DC) pair issues per epoch; this generator decides *when*
// within the epoch they arrive. Timestamps are drawn from an
// inhomogeneous intensity — diurnal sine across epochs plus an optional
// flash-crowd burst inside each epoch — by warping uniform draws through
// a piecewise-linear inverse CDF over kIntensityBins bins.
//
// Determinism: each (epoch, DC) pair gets its own forked RNG stream
// (Rng(seed).fork(kStreamStreamTag).fork(epoch).fork(dc)), so the
// timestamps for a DC depend only on (seed, epoch, dc, n) — never on how
// many samples any other DC drew, which keeps --jobs=N sweeps
// byte-identical to serial (the same guarantee the engine's named stream
// tags provide, see sim/engine.h).
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "stream/config.h"

namespace rfh {

class ArrivalGenerator {
 public:
  /// Number of piecewise-linear bins in the intensity inverse CDF.
  static constexpr std::size_t kIntensityBins = 32;

  ArrivalGenerator(const StreamConfig& config, std::uint64_t seed) noexcept
      : config_(config), seed_(seed) {}

  /// `n` arrival timestamps in [0, StreamConfig::kEpochMs), ascending, for
  /// queries issued from `dc` during `epoch`. Pure function of
  /// (seed, epoch, dc, n).
  [[nodiscard]] std::vector<double> timestamps(Epoch epoch, DatacenterId dc,
                                               std::size_t n) const;
  /// The same timestamps written into `out` (replacing its contents and
  /// keeping its capacity), for callers that reuse one buffer.
  void timestamps_into(Epoch epoch, DatacenterId dc, std::size_t n,
                       std::vector<double>& out) const;

  /// Relative arrival intensity at fraction `frac` in [0, 1) of `epoch`
  /// (floored at 0.05 so the inverse CDF stays strictly increasing).
  [[nodiscard]] double intensity(Epoch epoch, double frac) const noexcept;

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

 private:
  StreamConfig config_;
  std::uint64_t seed_;
};

}  // namespace rfh
