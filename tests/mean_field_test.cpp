// Tests for the mean-field census oracle (check/mean_field.h): the
// closed-form two-state chain, convergence bookkeeping, degenerate
// boundaries, scenario-derived parameters, and a small-N engine run
// whose measured census must land near the analytic fixed point.
#include "check/mean_field.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/availability.h"
#include "core/rfh_policy.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "harness/scenario.h"
#include "sim/engine.h"

namespace rfh {
namespace {

// With r_target == max_replicas == 3 and instant repair, the chain only
// ever occupies {2, 3}: from 3, two-or-more deaths land at 2 (one death
// repairs back within the epoch); from 2, any death repairs back to 2
// and none climbs to 3. Detailed balance gives pi_2 = q / (q + r) with
// q = P(>=2 of 3 die) and r = P(0 of 2 die).
TEST(MeanField, TwoStateClosedForm) {
  MeanFieldParams params;
  params.death_prob = 0.1;
  params.repair_prob = 1.0;
  params.r_target = 3;
  params.max_replicas = 3;

  const double p = params.death_prob;
  const double q = 3.0 * p * p * (1.0 - p) + p * p * p;  // 3 -> 2
  const double r = (1.0 - p) * (1.0 - p);                // 2 -> 3
  const double pi2 = q / (q + r);

  const MeanFieldPrediction prediction = predict_census(params);
  ASSERT_TRUE(prediction.converged);
  ASSERT_EQ(prediction.census.size(), 4u);
  EXPECT_NEAR(prediction.census[2], pi2, 1e-10);
  EXPECT_NEAR(prediction.census[3], 1.0 - pi2, 1e-10);
  EXPECT_NEAR(prediction.census[0], 0.0, 1e-12);
  EXPECT_NEAR(prediction.census[1], 0.0, 1e-12);
  EXPECT_NEAR(prediction.expected_replicas, 3.0 - pi2, 1e-9);
  EXPECT_NEAR(prediction.expected_availability,
              pi2 * availability(2, params.failure_rate) +
                  (1.0 - pi2) * availability(3, params.failure_rate),
              1e-9);
}

TEST(MeanField, StationaryDistributionIsAFixedPointOfTheStep) {
  MeanFieldParams params;
  params.death_prob = 0.05;
  params.r_target = 4;
  params.max_replicas = 8;

  const MeanFieldPrediction prediction = predict_census(params);
  ASSERT_TRUE(prediction.converged);

  std::vector<double> next;
  mean_field_step(params, prediction.census, next);
  double mass = 0.0;
  for (std::size_t k = 0; k < next.size(); ++k) {
    EXPECT_NEAR(next[k], prediction.census[k], 1e-10) << "bin " << k;
    mass += next[k];
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);  // the step conserves probability
}

TEST(MeanField, ZeroFailureStaysAtTheFloor) {
  MeanFieldParams params;
  params.death_prob = 0.0;
  params.r_target = 4;
  params.max_replicas = 16;

  const MeanFieldPrediction prediction = predict_census(params);
  ASSERT_TRUE(prediction.converged);
  EXPECT_DOUBLE_EQ(prediction.census[4], 1.0);
  EXPECT_DOUBLE_EQ(prediction.expected_replicas, 4.0);
  EXPECT_DOUBLE_EQ(prediction.expected_availability,
                   availability(4, params.failure_rate));
}

// With repair disabled every partition decays (reseeding at 1 copy on
// total loss) and the chain collapses onto the single-copy state.
TEST(MeanField, ZeroRepairCollapsesToOneCopy) {
  MeanFieldParams params;
  params.death_prob = 0.1;
  params.repair_prob = 0.0;
  params.r_target = 4;
  params.max_replicas = 8;

  const MeanFieldPrediction prediction = predict_census(params);
  ASSERT_TRUE(prediction.converged);
  EXPECT_NEAR(prediction.census[1], 1.0, 1e-9);
}

TEST(MeanField, ConvergenceFlagReportsIterationStarvation) {
  MeanFieldParams params;
  params.death_prob = 0.05;
  params.r_target = 4;
  params.max_replicas = 8;
  params.tolerance = 1e-30;  // unreachable in two iterations
  params.max_iterations = 2;

  const MeanFieldPrediction prediction = predict_census(params);
  EXPECT_FALSE(prediction.converged);
  EXPECT_EQ(prediction.iterations, 2u);
}

TEST(MeanField, FromScenarioDerivesTheChainFromPlanAndConfig) {
  Scenario scenario;
  scenario.epochs = 100;
  scenario.sim.failure_rate = 0.1;
  scenario.sim.min_availability = 0.9995;  // Eq. 14: r_min = 4

  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 0;
  churn.until = 100;
  churn.period = 1;
  churn.kill = 2;
  churn.recover = 2;
  scenario.fault_plan.add(churn);
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.at = 10;
  crash.count = 50;
  scenario.fault_plan.add(crash);
  // Placement-correlated kills must NOT feed death_prob.
  FaultEvent zone;
  zone.kind = FaultKind::kZoneOutage;
  zone.at = 20;
  zone.zone = 3;
  scenario.fault_plan.add(zone);

  const MeanFieldParams params =
      MeanFieldParams::from_scenario(scenario);  // the 100-server paper world
  EXPECT_EQ(params.r_target, 4u);
  EXPECT_DOUBLE_EQ(params.failure_rate, 0.1);
  // (2 kills/epoch * 100 epochs + 50 one-shot) / 100 epochs / 100 servers.
  EXPECT_NEAR(params.death_prob, 0.025, 1e-12);
  // The same plan over a 200-server synthetic world kills half as often.
  scenario.datacenters = 20;
  EXPECT_NEAR(MeanFieldParams::from_scenario(scenario).death_prob, 0.0125,
              1e-12);
}

TEST(MeanFieldCompare, PerfectAgreementIsZeroError) {
  MeanFieldParams params;
  params.death_prob = 0.02;
  params.r_target = 4;
  params.max_replicas = 8;
  const MeanFieldPrediction prediction = predict_census(params);

  // Feed the prediction back, scaled (compare normalizes internally).
  std::vector<double> sim(prediction.census);
  for (double& v : sim) v *= 12345.0;
  const CensusComparison cmp = compare(sim, prediction, params.failure_rate);
  EXPECT_NEAR(cmp.total_variation, 0.0, 1e-9);
  EXPECT_NEAR(cmp.max_bin_error, 0.0, 1e-9);
  EXPECT_NEAR(cmp.sim_expected_replicas, cmp.predicted_expected_replicas,
              1e-6);
}

TEST(MeanFieldCompare, ShorterHistogramIsZeroExtended) {
  MeanFieldParams params;
  params.death_prob = 0.0;
  params.r_target = 4;
  params.max_replicas = 8;
  const MeanFieldPrediction prediction = predict_census(params);  // delta_4

  const std::vector<double> sim = {0.0, 1.0};  // all mass at k = 1
  const CensusComparison cmp = compare(sim, prediction, params.failure_rate);
  ASSERT_EQ(cmp.per_bin_error.size(), prediction.census.size());
  EXPECT_NEAR(cmp.total_variation, 1.0, 1e-12);  // disjoint supports
  EXPECT_NEAR(cmp.per_bin_error[1], 1.0, 1e-12);
  EXPECT_NEAR(cmp.per_bin_error[4], -1.0, 1e-12);
}

// Small-N smoke of the real engine against the analytic fixed point —
// the miniature of `rfh_check --mode=meanfield`. 2.5% uniform churn on
// a 40-server world with the overload/migration/suicide rules disarmed;
// the measured census must land near pi (generous bound: at N=40 the
// finite-size error is the largest the oracle ever tolerates).
TEST(MeanFieldSim, SmallWorldCensusApproachesTheFixedPoint) {
  constexpr Epoch kWarmup = 30;
  constexpr Epoch kMeasured = 300;

  Scenario scenario;
  scenario.datacenters = 4;  // 4 DCs x 10 servers
  scenario.world.rooms_per_datacenter = 1;
  scenario.world.racks_per_room = 2;
  scenario.world.servers_per_rack = 5;
  scenario.world.per_replica_capacity_lo = 1e9;  // Eq. 12 never trips
  scenario.world.per_replica_capacity_hi = 1e9;
  scenario.sim.partitions = 64;
  scenario.world.partitions_hint = 64;  // repairs never drop on caps
  scenario.sim.min_availability = 0.9995;  // r_min = 4
  scenario.sim.beta = 1e9;
  scenario.sim.gamma = 1e9;
  scenario.epochs = kWarmup + kMeasured;

  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 0;
  churn.until = scenario.epochs;
  churn.period = 1;
  churn.kill = 1;  // 2.5% of the fleet per epoch
  churn.recover = 1;
  scenario.fault_plan.add(churn);

  RfhPolicy::Options policy_options;
  policy_options.enable_migration = false;
  policy_options.enable_suicide = false;
  const std::unique_ptr<Simulation> sim =
      make_simulation(scenario, PolicyKind::kRfh, policy_options);
  ChaosController chaos(scenario.fault_plan, scenario.sim.seed);

  std::vector<double> census(scenario.sim.max_replicas_per_partition + 1,
                             0.0);
  for (Epoch e = 0; e < scenario.epochs; ++e) {
    chaos.before_epoch(*sim, e);
    sim->step();
    if (e < kWarmup) continue;
    for (std::uint32_t pv = 0; pv < scenario.sim.partitions; ++pv) {
      const std::size_t k = sim->cluster().replicas_of(PartitionId{pv}).size();
      census[std::min(k, census.size() - 1)] += 1.0;
    }
  }

  const MeanFieldPrediction prediction = predict_census(scenario);
  ASSERT_TRUE(prediction.converged);
  const CensusComparison cmp =
      compare(census, prediction, scenario.sim.failure_rate);
  EXPECT_LT(cmp.total_variation, 0.05)
      << "sim E[r]=" << cmp.sim_expected_replicas
      << " predicted=" << cmp.predicted_expected_replicas;
  EXPECT_NEAR(cmp.sim_expected_replicas, cmp.predicted_expected_replicas,
              0.1);
}

}  // namespace
}  // namespace rfh
