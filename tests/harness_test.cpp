#include <gtest/gtest.h>

#include <sstream>

#include "exec/sweep.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "test_util.h"

namespace rfh {
namespace {

TEST(Scenario, PaperFactoriesMatchTableOne) {
  const Scenario random_query = Scenario::paper_random_query();
  EXPECT_EQ(random_query.epochs, 250u);
  EXPECT_EQ(random_query.sim.partitions, 64u);
  EXPECT_EQ(random_query.sim.partition_size, kib(512));
  EXPECT_DOUBLE_EQ(random_query.sim.failure_rate, 0.1);
  EXPECT_DOUBLE_EQ(random_query.sim.min_availability, 0.8);
  EXPECT_DOUBLE_EQ(random_query.sim.alpha, 0.2);
  EXPECT_DOUBLE_EQ(random_query.sim.beta, 2.0);
  EXPECT_DOUBLE_EQ(random_query.sim.gamma, 1.5);
  EXPECT_DOUBLE_EQ(random_query.sim.delta, 0.2);
  EXPECT_DOUBLE_EQ(random_query.sim.mu, 1.0);
  EXPECT_DOUBLE_EQ(random_query.sim.storage_limit, 0.7);

  EXPECT_EQ(Scenario::paper_flash_crowd().epochs, 400u);
  EXPECT_EQ(Scenario::paper_flash_crowd().workload,
            WorkloadKind::kFlashCrowd);
  const Scenario failure_recovery = Scenario::paper_failure_recovery();
  EXPECT_EQ(failure_recovery.epochs, 500u);
  // Fig. 10's failure is the scenario's own plan: 30 random servers die
  // before epoch 290.
  EXPECT_EQ(failure_recovery.fault_plan, test::crash_plan(290, 30));
  EXPECT_EQ(failure_recovery.fault_plan.serialize(),
            "# rfh-fault-plan/1\ncrash at=290 count=30\n");
}

TEST(Scenario, MakePolicyProducesCorrectKinds) {
  EXPECT_EQ(make_policy(PolicyKind::kRequest)->name(), "Request");
  EXPECT_EQ(make_policy(PolicyKind::kOwner)->name(), "Owner");
  EXPECT_EQ(make_policy(PolicyKind::kRandom)->name(), "Random");
  EXPECT_EQ(make_policy(PolicyKind::kRfh)->name(), "RFH");
  EXPECT_EQ(policy_name(PolicyKind::kRfh), "RFH");
}

TEST(Scenario, MakeSimulationIsReadyToStep) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 3;
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  const EpochReport report = sim->step();
  EXPECT_GT(report.total_queries, 0.0);
  EXPECT_EQ(sim->policy_name(), "RFH");
}

TEST(Scenario, MakeWorldBuildsTheShapeTheScenarioNames) {
  Scenario scenario;
  EXPECT_EQ(make_world(scenario).topology.datacenter_count(),
            kPaperDatacenters);
  scenario.datacenters = 100;
  const World world = make_world(scenario);
  EXPECT_EQ(world.topology.datacenter_count(), 100u);
  // The ring plus log-spaced chords: 13 of stride 8 and 2 of stride 64.
  EXPECT_EQ(world.links.size(), 100u + 13u + 2u);
  // Demand scales with the world: 30 queries per epoch per datacenter.
  const auto workload = make_workload(scenario, world);
  Rng rng(1);
  double total = 0.0;
  for (Epoch e = 0; e < 20; ++e) {
    for (const QueryFlow& f : workload->generate(e, rng)) total += f.queries;
  }
  EXPECT_NEAR(total / 20.0, 3000.0, 60.0);
}

TEST(Runner, SeriesHasOneEntryPerEpoch) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 20;
  const PolicyRun run = run_policy(scenario, PolicyKind::kRandom);
  EXPECT_EQ(run.kind, PolicyKind::kRandom);
  EXPECT_EQ(run.series.size(), 20u);
}

TEST(Runner, ReproducibleAcrossInvocations) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 25;
  const PolicyRun a = run_policy(scenario, PolicyKind::kRfh);
  const PolicyRun b = run_policy(scenario, PolicyKind::kRfh);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].total_replicas, b.series[i].total_replicas);
    EXPECT_DOUBLE_EQ(a.series[i].utilization, b.series[i].utilization);
    EXPECT_DOUBLE_EQ(a.series[i].path_length, b.series[i].path_length);
  }
}

TEST(Runner, ComparisonCoversAllFourPolicies) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 10;
  const ComparativeResult result = run_comparison(scenario);
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.run(PolicyKind::kRequest).kind, PolicyKind::kRequest);
  EXPECT_EQ(result.run(PolicyKind::kRfh).kind, PolicyKind::kRfh);
  for (const PolicyRun& run : result.runs) {
    EXPECT_EQ(run.series.size(), 10u);
  }
}

TEST(Runner, CrashLinesFireAtTheRequestedEpoch) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 30;
  scenario.fault_plan = test::crash_plan(10, 20);
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  EXPECT_EQ(run.killed.size(), 20u);
  // The copy census visibly drops at the failure epoch.
  EXPECT_LT(run.series[10].total_replicas, run.series[9].total_replicas);
}

TEST(Runner, RecoverEventRestoresServers) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 12;
  const FaultPlan::ParseResult parsed = FaultPlan::parse(
      "crash at=2 servers=0,1\n"
      "recover at=6 servers=0,1\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  scenario.fault_plan = parsed.plan;
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  EXPECT_EQ(run.series.size(), 12u);
  EXPECT_EQ(run.killed, (std::vector<ServerId>{ServerId{0}, ServerId{1}}));
  EXPECT_EQ(run.faults_by_kind[static_cast<std::size_t>(FaultKind::kRecover)],
            1u);
}

TEST(Runner, ExtraFaultsJoinTheScenarioPlanInOneController) {
  // run_policy's extra events run in the same controller as the
  // scenario's plan, after it: passing them separately gives the run
  // that placing them at the end of scenario.fault_plan gives.
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 40;
  scenario.fault_plan = test::crash_plan(10, 8);
  const FaultPlan extra = FaultPlan::parse(
                              "crash at=10 count=5\n"
                              "recover at=20 count=6\n"
                              "crash at=30 count=12\n")
                              .plan;
  ASSERT_EQ(extra.size(), 3u);
  Scenario combined = scenario;
  for (const FaultEvent& event : extra.events()) {
    combined.fault_plan.add(event);
  }
  Scenario extra_only = scenario;
  extra_only.fault_plan = FaultPlan{};
  Scenario inline_only = scenario;
  inline_only.fault_plan = extra;

  const struct {
    const char* label;
    PolicyRun split;
    PolicyRun joined;
  } cases[] = {
      {"plan + extra", run_policy(scenario, PolicyKind::kRfh, extra),
       run_policy(combined, PolicyKind::kRfh)},
      {"extra only", run_policy(extra_only, PolicyKind::kRfh, extra),
       run_policy(inline_only, PolicyKind::kRfh)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(series_digest(c.split.series), series_digest(c.joined.series));
    EXPECT_EQ(c.split.killed, c.joined.killed);
    EXPECT_EQ(c.split.faults_injected, c.joined.faults_injected);
    EXPECT_EQ(c.split.faults_by_kind, c.joined.faults_by_kind);
  }
  EXPECT_EQ(cases[0].split.killed.size(), 8u + 5u + 12u);
  EXPECT_EQ(cases[0].split.faults_injected, 4u);
}

TEST(Report, PrintFigureEmitsCsvAndSummary) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 8;
  const ComparativeResult result = run_comparison(scenario);
  std::ostringstream out;
  print_figure(out, "test figure", result, &EpochMetrics::utilization, 4);
  const std::string text = out.str();
  EXPECT_NE(text.find("# test figure"), std::string::npos);
  EXPECT_NE(text.find("epoch,Request,Owner,Random,RFH"), std::string::npos);
  EXPECT_NE(text.find("# tail-mean(last 4 epochs):"), std::string::npos);

  std::ostringstream out2;
  print_figure_u32(out2, "counter figure", result,
                   &EpochMetrics::total_replicas, 4);
  EXPECT_NE(out2.str().find("counter figure"), std::string::npos);
}

TEST(Report, TailMeanAveragesTheTail) {
  PolicyRun run;
  run.series.resize(4);
  run.series[0].path_length = 100.0;
  run.series[1].path_length = 1.0;
  run.series[2].path_length = 2.0;
  run.series[3].path_length = 3.0;
  EXPECT_DOUBLE_EQ(tail_mean(run, &EpochMetrics::path_length, 3), 2.0);
  EXPECT_DOUBLE_EQ(tail_mean(run, &EpochMetrics::path_length, 100), 26.5);
  run.series[2].total_replicas = 4;
  run.series[3].total_replicas = 7;
  EXPECT_DOUBLE_EQ(tail_mean(run, &EpochMetrics::total_replicas, 2), 5.5);
}

}  // namespace
}  // namespace rfh
