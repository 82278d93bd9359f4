// Mean-field analytic oracle for the replica-census distribution.
//
// The differential oracle (diff.h) replays the engine bit-for-bit against
// a naive reference, which is only affordable at small N. This module
// validates the *large*-N regime the other way: Sun et al.'s mean-field
// analysis of replication under failure/repair (arXiv 1701.00335) says
// that as the fleet grows, the empirical distribution of per-partition
// copy counts converges to the stationary distribution of a single-
// partition Markov chain in which every other partition is summarized by
// its average effect. We build that chain from the scenario's failure
// and repair parameters, solve for its fixed point, and compare the
// engine's measured census against it; the sim-vs-analytic error must
// *shrink* as N grows (rfh_check --mode=meanfield asserts monotonicity
// across 1k/10k/100k servers).
//
// The chain (one epoch, one partition, k = copies in 0..max_replicas):
//   1. deaths  j ~ Binomial(k, death_prob): chaos kills a fixed fraction
//      of the fleet each epoch, and a partition's k holders are a
//      uniformly random k-subset of it. (The engine's draw is
//      hypergeometric — without replacement from n servers — whose
//      O(1/N) deviation from the binomial is exactly the finite-size
//      error that vanishes as N grows.)
//   2. reseed  s = k - j; s == 0 becomes s = 1: the engine reseeds a
//      partition that lost every copy at its ring successor (data loss),
//      in the same pre-step failure handling.
//   3. repair  s < r_target gains one copy with probability repair_prob:
//      RFH's Eq. 14 availability floor proposes exactly one replicate
//      per deficient partition per epoch, and the kNearOwner fallback
//      makes placement succeed unless bandwidth/storage run dry
//      (repair_prob models that success rate; 1.0 in a provisioned
//      fleet).
//
// Where this is and isn't a valid oracle: the model assumes kills are
// uniform and independent of placement (true for churn/crash plans, not
// for zone or DC outages), ignores the overload/migration/suicide rules
// (the meanfield scenario disables them / sets their thresholds out of
// reach), and treats partitions as exchangeable. See DESIGN.md §16.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"

namespace rfh {

struct Scenario;

/// Inputs of the census chain. Derive from a scenario with
/// from_scenario(), or fill directly (tests, ablations).
struct MeanFieldParams {
  /// Per-server, per-epoch kill probability (the chaos plan's steady
  /// kill fraction).
  double death_prob = 0.0;
  /// Probability a below-floor partition successfully gains its +1 copy
  /// in an epoch (Eq. 14 repair; 1.0 unless bandwidth/storage starve).
  double repair_prob = 1.0;
  /// Eq. 14 availability floor r_min the repair rule restores toward.
  std::uint32_t r_target = 2;
  /// Census support cap (states 0..max_replicas inclusive).
  std::uint32_t max_replicas = 16;
  /// Per-copy failure probability f (availability(r, f) = 1 - f^r).
  double failure_rate = 0.1;
  /// Fixed-point stopping rule: iterate until the total-variation step
  /// falls below `tolerance` (or `max_iterations` epochs of the chain).
  double tolerance = 1e-13;
  std::uint32_t max_iterations = 100000;

  /// Derive the chain from a scenario: r_target via Eq. 14 from the
  /// scenario's min_availability/failure_rate, death_prob as the fault
  /// plan's expected kills per epoch (crash + churn events, averaged
  /// over [0, scenario.epochs)) divided by the scenario world's server
  /// count. Zone/DC outages are deliberately ignored — they violate the
  /// uniform-kill assumption (see header comment), so scenarios carrying
  /// them are not valid mean-field subjects.
  static MeanFieldParams from_scenario(const Scenario& scenario);
};

/// The solved fixed point.
struct MeanFieldPrediction {
  /// Stationary distribution pi_k over k = 0..max_replicas (sums to 1).
  std::vector<double> census;
  /// Sum over k of pi_k * availability(k, failure_rate)   (Eq. 14 form).
  double expected_availability = 0.0;
  /// Sum over k of pi_k * k.
  double expected_replicas = 0.0;
  /// Fixed-point iterations performed.
  std::uint32_t iterations = 0;
  /// False when max_iterations elapsed before the tolerance was met.
  bool converged = false;
};

/// Solve the census chain for its stationary distribution by fixed-point
/// iteration from delta at min(r_target, max_replicas).
[[nodiscard]] MeanFieldPrediction predict_census(const MeanFieldParams& params);

/// Convenience: from_scenario + predict_census.
[[nodiscard]] MeanFieldPrediction predict_census(const Scenario& scenario);

/// One step of the chain: census' = census * T. Exposed for tests (a
/// stationary distribution must be a fixed point of this map).
void mean_field_step(const MeanFieldParams& params,
                     std::span<const double> census,
                     std::vector<double>& out);

/// Sim-vs-analytic comparison. `sim_census` is the engine's measured
/// copy-count histogram over k = 0..prediction.census.size()-1 (raw
/// counts or any normalization — it is normalized internally; a shorter
/// span is zero-extended).
struct CensusComparison {
  /// 0.5 * sum |sim_k - pi_k| in [0, 1] — the headline error.
  double total_variation = 0.0;
  /// Signed per-bin error sim_k - pi_k.
  std::vector<double> per_bin_error;
  /// max_k |sim_k - pi_k|.
  double max_bin_error = 0.0;
  double sim_expected_replicas = 0.0;
  double predicted_expected_replicas = 0.0;
  double sim_expected_availability = 0.0;
  double predicted_expected_availability = 0.0;
};

[[nodiscard]] CensusComparison compare(std::span<const double> sim_census,
                                       const MeanFieldPrediction& prediction,
                                       double failure_rate);

}  // namespace rfh
