// The differential harness: runs the optimized engine and the naive
// ReferenceEngine in lock-step over one CheckCase and cross-checks them
// after every epoch — placements, applied decisions (with their
// DecisionRule), traffic totals, smoothed statistics, drop tallies,
// starved repairs and replica counts must match exactly (doubles compared bit-for-bit: both
// sides perform the same FP operations in the same order, so any
// difference is a real behavioural divergence, not rounding).
//
// Fault mirroring: the engine run is driven by a ChaosController when
// the case carries a fault plan; the harness replays the engine's
// pre-step event stream (ServerFailed batches, ServerRecovered,
// LinkFailed / LinkRestored, the traffic multiplier) into the reference
// engine, so both sides see the identical failure schedule without the
// reference depending on the chaos RNG.
//
// On divergence the harness stops and reports the first mismatch:
// epoch, quantity, and the partition / server / values involved. The
// InvariantChecker (fault/invariants.h) runs after every epoch too, so
// a case that breaks an invariant without diverging still fails.
#pragma once

#include <string>

#include "check/case.h"

namespace rfh {

struct DiffOutcome {
  /// True when every epoch matched and no invariant fired.
  bool ok = true;
  /// Epochs actually executed (== the case's horizon when ok).
  Epoch epochs_run = 0;

  // --- set when !ok ------------------------------------------------------
  /// First divergent epoch.
  Epoch epoch = 0;
  /// The mismatching quantity ("node_traffic", "applied[2].rule", ...),
  /// or the invariant name when invariant_failure is set.
  std::string quantity;
  /// Human-readable specifics: partition / server and both sides' values.
  std::string detail;
  /// True when the InvariantChecker (not the engine/reference diff)
  /// flagged the epoch.
  bool invariant_failure = false;

  /// One-line report ("ok after N epochs" / "divergence at epoch E: ...").
  [[nodiscard]] std::string to_string() const;
};

/// Execute the case end-to-end, stopping at the first divergence or
/// invariant violation.
[[nodiscard]] DiffOutcome run_check_case(const CheckCase& c);

}  // namespace rfh
