// Open-loop arrival-timestamp generation.
//
// The batch workload decides *how many* queries each (partition,
// requester-DC) pair issues per epoch; this generator decides *when*
// within the epoch they arrive. Timestamps are drawn from an
// inhomogeneous intensity — a diurnal sine across epochs, 1 + A *
// sin(2*pi * phase) with A = StreamConfig::kDiurnalAmplitude over
// StreamConfig::kDiurnalPeriod epochs — by warping uniform draws through
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
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace rfh {

class ArrivalGenerator {
 public:
  /// Number of piecewise-linear bins in the intensity inverse CDF.
  static constexpr std::size_t kIntensityBins = 32;

  explicit ArrivalGenerator(std::uint64_t seed) noexcept : seed_(seed) {}

  /// Write `n` arrival timestamps in [0, StreamConfig::kEpochMs),
  /// ascending, for queries issued from `dc` during `epoch` into `out`
  /// (replacing its contents and keeping its capacity). Pure function of
  /// (seed, epoch, dc, n).
  void timestamps_into(Epoch epoch, DatacenterId dc, std::size_t n,
                       std::vector<double>& out) const;

 private:
  std::uint64_t seed_;
};

}  // namespace rfh
