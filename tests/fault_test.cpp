// ChaosController and InvariantChecker behaviour: events fire at their
// scheduled epochs through the engine's real injection primitives, the
// controller stays deterministic and safe, and the checker both passes
// healthy runs and catches planted violations.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/availability.h"
#include "fault/chaos.h"
#include "fault/invariants.h"
#include "fault/plan.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "obs/sinks.h"
#include "telemetry/registry.h"
#include "test_util.h"

namespace rfh {
namespace {

FaultEvent crash_at(Epoch at, std::uint32_t count) {
  FaultEvent e;
  e.kind = FaultKind::kCrash;
  e.at = at;
  e.count = count;
  return e;
}

std::unique_ptr<Simulation> paper_sim() {
  const Scenario scenario = Scenario::paper_random_query();
  return make_simulation(scenario, PolicyKind::kRfh);
}

// --- chaos controller ---------------------------------------------------

TEST(ChaosController, CrashFiresExactlyAtItsEpoch) {
  FaultPlan plan;
  plan.add(crash_at(5, 3));
  auto sim = paper_sim();
  CaptureSink capture;
  sim->events().add_sink(&capture);
  MetricRegistry registry;
  sim->set_telemetry(&registry);
  ChaosController chaos(plan, 42);

  const auto live0 = sim->cluster().live_server_count();
  for (Epoch e = 0; e < 10; ++e) {
    const auto applied = chaos.before_epoch(*sim, e);
    if (e == 5) {
      EXPECT_EQ(applied.killed.size(), 3u);
      EXPECT_EQ(applied.faults, 1u);
    } else {
      EXPECT_TRUE(applied.killed.empty());
    }
    sim->step();
  }
  EXPECT_EQ(sim->cluster().live_server_count(), live0 - 3);
  EXPECT_EQ(test::count_events<FaultInjected>(capture), 1u);
  EXPECT_EQ(chaos.injected_total(), 1u);
  EXPECT_EQ(chaos.injected_by_kind()[static_cast<std::size_t>(
                FaultKind::kCrash)],
            1u);
  const Counter* c = registry.find_counter("rfh_faults_injected_total",
                                           {{"kind", "crash"}});
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value(), 1.0);
}

TEST(ChaosController, OutageKillsTheDatacenterAndAutoRecovers) {
  FaultEvent outage;
  outage.kind = FaultKind::kDatacenterOutage;
  outage.at = 3;
  outage.dc = DatacenterId{1};
  outage.recover_after = 4;
  FaultPlan plan;
  plan.add(outage);

  auto sim = paper_sim();
  const auto live0 = sim->cluster().live_server_count();
  const auto dc_size = sim->topology().servers_in(DatacenterId{1}).size();
  ASSERT_GT(dc_size, 0u);
  ChaosController chaos(plan, 42);

  for (Epoch e = 0; e < 10; ++e) {
    const auto applied = chaos.before_epoch(*sim, e);
    if (e == 3) {
      EXPECT_EQ(applied.killed.size(), dc_size);
    }
    if (e == 7) {
      EXPECT_EQ(applied.recovered.size(), dc_size);
    }
    if (e >= 3 && e < 7) {
      EXPECT_EQ(sim->cluster().live_server_count(), live0 - dc_size) << e;
    } else {
      EXPECT_EQ(sim->cluster().live_server_count(), live0) << e;
    }
    sim->step();
  }
  EXPECT_FALSE(chaos.exhausted(6));
  EXPECT_TRUE(chaos.exhausted(8));
}

TEST(ChaosController, FlapHoldsTheLinkDownPerCycle) {
  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.at = 2;
  flap.until = 12;
  flap.link_a = DatacenterId{3};
  flap.link_b = DatacenterId{4};
  flap.period = 5;
  flap.down = 2;
  FaultPlan plan;
  plan.add(flap);

  auto sim = paper_sim();
  ChaosController chaos(plan, 42);
  for (Epoch e = 0; e < 15; ++e) {
    chaos.before_epoch(*sim, e);
    const bool down_phase =
        e >= 2 && e < 12 && (e - 2) % 5 < 2;  // epochs 2,3, 7,8
    EXPECT_EQ(sim->failed_link_count(), down_phase ? 1u : 0u) << e;
    sim->step();
  }
  // The flap never outlives its window.
  EXPECT_EQ(sim->failed_link_count(), 0u);
}

TEST(ChaosController, FlashCrowdMultipliesTraffic) {
  QueryBatch batch;
  batch.push_back(QueryFlow{PartitionId{0}, DatacenterId{0}, 10.0});
  batch.push_back(QueryFlow{PartitionId{1}, DatacenterId{2}, 20.0});
  SimConfig config;
  config.partitions = 2;
  auto sim = test::make_fixed_sim(batch, std::make_unique<test::NullPolicy>(),
                                  config);

  FaultEvent crowd;
  crowd.kind = FaultKind::kFlashCrowd;
  crowd.at = 2;
  crowd.duration = 3;
  crowd.factor = 4.0;
  FaultPlan plan;
  plan.add(crowd);
  ChaosController chaos(plan, 7);

  for (Epoch e = 0; e < 7; ++e) {
    chaos.before_epoch(*sim, e);
    const EpochReport report = sim->step();
    const double expected = (e >= 2 && e < 5) ? 120.0 : 30.0;
    EXPECT_NEAR(report.total_queries, expected, 1e-9) << e;
  }
  EXPECT_DOUBLE_EQ(sim->traffic_multiplier(), 1.0);
}

TEST(ChaosController, ChurnRollsWithoutDrainingTheCluster) {
  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 0;
  churn.until = 30;
  churn.period = 5;
  churn.kill = 2;
  churn.recover = 2;
  FaultPlan plan;
  plan.add(churn);

  auto sim = paper_sim();
  const auto live0 = sim->cluster().live_server_count();
  ChaosController chaos(plan, 42);
  for (Epoch e = 0; e < 30; ++e) {
    chaos.before_epoch(*sim, e);
    // Wave 0 kills 2 with nobody to revive; every later wave revives as
    // many as it kills, so the deficit never exceeds the first wave's.
    EXPECT_GE(sim->cluster().live_server_count(), live0 - 2) << e;
    sim->step();
  }
  EXPECT_EQ(sim->cluster().live_server_count(), live0 - 2);
  EXPECT_EQ(chaos.injected_by_kind()[static_cast<std::size_t>(
                FaultKind::kChurn)],
            6u);  // epochs 0,5,10,15,20,25
}

TEST(ChaosController, RecoverRevivesLongestDeadVictims) {
  FaultPlan plan;
  plan.add(crash_at(1, 4));
  FaultEvent heal;
  heal.kind = FaultKind::kRecover;
  heal.at = 5;
  heal.count = 3;
  plan.add(heal);

  auto sim = paper_sim();
  const auto live0 = sim->cluster().live_server_count();
  ChaosController chaos(plan, 42);
  std::vector<ServerId> killed;
  std::vector<ServerId> revived;
  for (Epoch e = 0; e < 8; ++e) {
    const auto applied = chaos.before_epoch(*sim, e);
    killed.insert(killed.end(), applied.killed.begin(), applied.killed.end());
    revived.insert(revived.end(), applied.recovered.begin(),
                   applied.recovered.end());
    sim->step();
  }
  ASSERT_EQ(killed.size(), 4u);
  ASSERT_EQ(revived.size(), 3u);
  // Oldest victims come back first, in kill order.
  EXPECT_EQ(revived[0], killed[0]);
  EXPECT_EQ(revived[1], killed[1]);
  EXPECT_EQ(revived[2], killed[2]);
  EXPECT_EQ(sim->cluster().live_server_count(), live0 - 1);
}

TEST(ChaosController, SameSeedSameVictims) {
  FaultPlan plan;
  plan.add(crash_at(2, 5));
  std::vector<ServerId> first;
  std::vector<ServerId> second;
  for (std::vector<ServerId>* out : {&first, &second}) {
    auto sim = paper_sim();
    ChaosController chaos(plan, 1234);
    for (Epoch e = 0; e < 5; ++e) {
      const auto applied = chaos.before_epoch(*sim, e);
      out->insert(out->end(), applied.killed.begin(), applied.killed.end());
      sim->step();
    }
  }
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 5u);
}

TEST(ChaosController, OutOfRangeDatacentersAreSkippedNotFatal) {
  FaultEvent outage;
  outage.kind = FaultKind::kDatacenterOutage;
  outage.at = 1;
  outage.dc = DatacenterId{999};
  FaultEvent link;
  link.kind = FaultKind::kLinkDown;
  link.at = 1;
  link.link_a = DatacenterId{0};
  link.link_b = DatacenterId{999};
  FaultPlan plan;
  plan.add(outage);
  plan.add(link);

  auto sim = paper_sim();
  const auto live0 = sim->cluster().live_server_count();
  ChaosController chaos(plan, 42);
  for (Epoch e = 0; e < 3; ++e) {
    const auto applied = chaos.before_epoch(*sim, e);
    EXPECT_EQ(applied.faults, 0u);
    sim->step();
  }
  EXPECT_EQ(sim->cluster().live_server_count(), live0);
  EXPECT_EQ(sim->failed_link_count(), 0u);
}

// --- invariant checker --------------------------------------------------

TEST(InvariantChecker, HealthyRunHasZeroViolations) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 40;
  InvariantChecker checker;
  run_policy(scenario, PolicyKind::kRfh, {}, RfhPolicy::Options{}, nullptr,
             nullptr, nullptr, &checker);
  EXPECT_EQ(checker.epochs_checked(), 40u);
  EXPECT_TRUE(checker.violations().empty()) << checker.summary();
}

TEST(InvariantChecker, FailureDeficitsAreExcusedNotFlagged) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 60;
  scenario.fault_plan.add(crash_at(30, 20));  // a fifth of the cluster
  InvariantChecker checker;
  const PolicyRun run =
      run_policy(scenario, PolicyKind::kRfh, {}, RfhPolicy::Options{},
                 nullptr, nullptr, nullptr, &checker);
  EXPECT_EQ(run.killed.size(), 20u);
  EXPECT_TRUE(checker.violations().empty()) << checker.summary();
}

TEST(InvariantChecker, CatchesVoluntaryDropBelowFloor) {
  // A scripted policy replicates partition 0 up to the Eq. 14 floor, then
  // suicides the extra copy while every host is alive — exactly the
  // voluntary deficit the replica_floor invariant must flag.
  QueryBatch batch;
  batch.push_back(QueryFlow{PartitionId{0}, DatacenterId{0}, 5.0});
  SimConfig config;
  config.partitions = 2;
  const std::uint32_t floor =
      min_replicas(config.min_availability, config.failure_rate);
  ASSERT_EQ(floor, 2u);

  auto policy = test::make_lambda_policy([](const PolicyContext& ctx) {
    Actions actions;
    const PartitionId p0{0};
    if (ctx.epoch == 0) {
      const ServerId primary = ctx.cluster.primary_of(p0);
      for (const Server& s : ctx.topology.servers()) {
        if (s.id != primary && ctx.cluster.can_accept(s.id, p0)) {
          actions.replications.push_back(ReplicateAction{p0, s.id, {}});
          break;
        }
      }
    } else if (ctx.epoch == 2 && ctx.cluster.replica_count(p0) >= 2) {
      for (const Replica& r : ctx.cluster.replicas_of(p0)) {
        if (r.server != ctx.cluster.primary_of(p0)) {
          actions.suicides.push_back(SuicideAction{p0, r.server, {}});
          break;
        }
      }
    }
    return actions;
  });
  auto sim = test::make_fixed_sim(batch, std::move(policy), config);

  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  std::size_t violations_at_2 = 0;
  for (Epoch e = 0; e < 4; ++e) {
    const EpochReport report = sim->step();
    const std::size_t found = checker.check_epoch(*sim, report);
    if (e == 2) violations_at_2 = found;
  }
  ASSERT_GE(violations_at_2, 1u) << checker.summary();
  EXPECT_EQ(checker.violations()[0].id, InvariantId::kReplicaFloor);
  EXPECT_NE(checker.violations()[0].detail.find("partition 0"),
            std::string::npos)
      << checker.violations()[0].detail;
}

TEST(InvariantChecker, CatchesDoctoredAccounting) {
  auto sim = paper_sim();
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  EpochReport report = sim->step();
  EXPECT_EQ(checker.check_epoch(*sim, report), 0u);

  report = sim->step();
  report.total_replicas += 1;           // accounting lie
  report.total_queries += 100.0;        // conservation lie
  const std::size_t found = checker.check_epoch(*sim, report);
  EXPECT_GE(found, 2u) << checker.summary();
  bool saw_accounting = false;
  bool saw_traffic = false;
  for (const InvariantChecker::Violation& v : checker.violations()) {
    saw_accounting |= v.id == InvariantId::kAccounting;
    saw_traffic |= v.id == InvariantId::kTraffic;
  }
  EXPECT_TRUE(saw_accounting);
  EXPECT_TRUE(saw_traffic);
}

TEST(InvariantCheckerDeath, FailFastAbortsWithTheViolationOnStderr) {
  auto sim = paper_sim();
  EpochReport report = sim->step();
  report.total_replicas += 1;
  InvariantChecker checker(InvariantChecker::Mode::kFailFast);
  EXPECT_DEATH(checker.check_epoch(*sim, report),
               "invariant check failed at epoch");
}

TEST(InvariantChecker, SummaryListsViolations) {
  auto sim = paper_sim();
  InvariantChecker checker;
  EpochReport report = sim->step();
  report.total_replicas += 1;
  checker.check_epoch(*sim, report);
  const std::string text = checker.summary();
  EXPECT_NE(text.find("1 violations"), std::string::npos) << text;
  EXPECT_NE(text.find("accounting"), std::string::npos) << text;
}

}  // namespace
}  // namespace rfh
