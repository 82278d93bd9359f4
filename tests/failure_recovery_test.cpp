// Fault tolerance end to end: mass failure, promotion, re-replication,
// recovery (paper Fig. 10 and Section III-G).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/availability.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "test_util.h"

namespace rfh {
namespace {

TEST(FailureRecovery, CensusDropsAtTheKillAndRecovers) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 200;
  scenario.fault_plan = test::crash_plan(100, 30);
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);

  const auto replicas = [&](std::size_t e) {
    return run.series[e].total_replicas;
  };
  // Sharp drop at the failure epoch...
  EXPECT_LT(replicas(100), replicas(99));
  const double drop = 1.0 - static_cast<double>(replicas(100)) /
                                static_cast<double>(replicas(99));
  EXPECT_GT(drop, 0.05);  // 30% of servers held a visible share of copies
  // ...and recovery to (near) the pre-failure plateau.
  double plateau = 0.0;
  double recovered = 0.0;
  for (std::size_t e = 70; e < 100; ++e) plateau += replicas(e);
  for (std::size_t e = 170; e < 200; ++e) recovered += replicas(e);
  plateau /= 30.0;
  recovered /= 30.0;
  EXPECT_GT(recovered, 0.9 * plateau);
}

TEST(FailureRecovery, AvailabilityFloorIsRestoredAfterMassFailure) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 160;
  scenario.fault_plan = test::crash_plan(80, 30);
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  const std::uint32_t floor =
      min_replicas(scenario.sim.min_availability, scenario.sim.failure_rate);
  // Well after the failure every partition is back at or above the floor.
  EXPECT_GE(run.series.back().avg_replicas_per_partition,
            static_cast<double>(floor) - 0.05);
}

TEST(FailureRecovery, ServiceContinuesThroughTheFailure) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 160;
  scenario.fault_plan = test::crash_plan(80, 30);
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  // The unserved spike right after the failure decays again.
  double spike = 0.0;
  for (std::size_t e = 80; e < 90; ++e) {
    spike = std::max(spike, run.series[e].unserved_fraction);
  }
  EXPECT_LT(tail_mean(run, &EpochMetrics::unserved_fraction, 20),
            std::max(spike, 0.12));
}

TEST(FailureRecovery, RepeatedSmallFailuresAreAbsorbed) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 150;
  for (Epoch e = 30; e <= 120; e += 30) {
    scenario.fault_plan.add(test::crash_plan(e, 5).events().front());
  }
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  EXPECT_EQ(run.killed.size(), 20u);
  EXPECT_GT(run.series.back().total_replicas, 64u);  // still replicated
}

TEST(FailureRecovery, EveryPolicySurvivesMassFailure) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 100;
  scenario.fault_plan = test::crash_plan(50, 30);
  for (const PolicyKind kind : {PolicyKind::kRequest, PolicyKind::kOwner,
                                PolicyKind::kRandom, PolicyKind::kRfh}) {
    const PolicyRun run = run_policy(scenario, kind);
    EXPECT_EQ(run.series.size(), 100u) << policy_name(kind);
    // Every partition still has a primary serving queries.
    EXPECT_GT(run.series.back().total_replicas, 0u) << policy_name(kind);
  }
}

TEST(FailureRecovery, RecoveredServersAreReused) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 160;
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  sim->run(60);
  const auto victims = test::crash_now(*sim, 30);
  sim->run(20);
  sim->recover_servers(victims);
  sim->run(80);
  // Some copies land back on the recovered servers.
  std::uint32_t copies_on_recovered = 0;
  for (const ServerId s : victims) {
    copies_on_recovered += sim->cluster().copies_on(s);
  }
  EXPECT_GT(copies_on_recovered, 0u);
  sim->cluster().check_invariants();
}

}  // namespace
}  // namespace rfh
