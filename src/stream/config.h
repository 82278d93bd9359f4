// Configuration for the streaming load subsystem (src/stream/).
//
// The stream layer disaggregates the engine's per-epoch batch traffic
// into timestamped arrivals and queues them at the serving servers. Its
// contract with batch mode: per-epoch *totals* are identical by
// construction (the stream workload reuses the uniform batch generator
// with mean == arrival_rate, consuming the exact same RNG stream), so
// Eqs. 2-19, the routing/policy phases and the differential oracle are
// untouched. Everything here shapes only *when* within an epoch each
// query arrives and how long it waits.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace rfh {

struct StreamConfig {
  /// Mean arrivals per epoch across all partitions (the batch workload's
  /// mean_queries_per_epoch, so stream and uniform runs at the same seed
  /// generate identical batches). CLI: --arrival-rate.
  double arrival_rate = 300.0;

  /// Per-server waiting-room cap: an arrival finding this many queries
  /// already waiting is dropped by backpressure (counted in
  /// rfh_dropped_backpressure_total, never served, never retried).
  /// CLI: --queue-cap.
  std::uint32_t queue_cap = 32;

  /// Coefficient of variation of the service-time distribution. The
  /// queue is simulated with deterministic service (M/D/c) and its wait
  /// scaled by (1 + cv^2) — the Allen-Cunneen correction relating M/D/c
  /// to M/G/c (see erlang_mgc_mean_wait in common/erlang.h): cv = 1
  /// approximates exponential service, cv = 0 is deterministic.
  /// CLI: --service-cv.
  double service_cv = 1.0;

  /// Mean service time per query, ms. At the Table I defaults a server
  /// holding ~10 queries/epoch offers a = 10 * 1500 / 10000 = 1.5 Erlang
  /// on 4-8 channels — comfortably stable; load factors of 3-4x push hot
  /// servers into queueing and backpressure.
  static constexpr double kServiceTimeMs = 1500.0;

  /// Wall-clock length of one epoch, ms (Table I: 10 seconds).
  static constexpr double kEpochMs = 10000.0;

  // --- within-epoch arrival-time modulation -----------------------------
  // Arrival *counts* per epoch come from the batch generator; the diurnal
  // sine shapes the timestamp density inside the epoch via an
  // inhomogeneous intensity warped through a piecewise-linear inverse CDF
  // (stream/arrival.cpp). It never changes per-epoch totals.

  /// Diurnal sine amplitude: intensity follows
  /// 1 + A * sin(2*pi * epoch_phase) over kDiurnalPeriod epochs.
  static constexpr double kDiurnalAmplitude = 0.5;
  static constexpr Epoch kDiurnalPeriod = 50;
};

}  // namespace rfh
