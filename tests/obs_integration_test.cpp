// End-to-end observability: a real Simulation with sinks attached emits a
// trace in which every RFH action carries its decision explanation, every
// drop carries a reason, failure injection shows up as failure events, and
// the per-reason drop counters in EpochReport reconcile with the trace.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/runner.h"
#include "harness/scenario.h"
#include "obs/sinks.h"
#include "test_util.h"

namespace rfh {
namespace {

Scenario small_scenario() {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 60;
  return scenario;
}

TEST(ObsIntegration, RfhActionsCarryDecisionExplanations) {
  const Scenario scenario = small_scenario();
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  CaptureSink capture;
  sim->events().add_sink(&capture);
  for (Epoch e = 0; e < scenario.epochs; ++e) sim->step();

  std::size_t replica_added = 0;
  for (const Event& event : capture.events) {
    if (const auto* added = std::get_if<ReplicaAdded>(&event)) {
      ++replica_added;
      // Every RFH replication must name the inequality that fired and the
      // numbers behind it.
      EXPECT_NE(added->why.rule, DecisionRule::kNone);
      EXPECT_STRNE(rule_inequality(added->why.rule), "");
      EXPECT_EQ(added->why.beta, sim->config().beta);
      EXPECT_EQ(added->why.gamma, sim->config().gamma);
      EXPECT_GE(added->why.r_min, 1u);
      if (added->why.rule == DecisionRule::kAvailabilityFloor) {
        EXPECT_LT(added->why.observed, added->why.threshold);
      }
      EXPECT_TRUE(added->target.valid());
      EXPECT_TRUE(added->source.valid());
    }
    if (const auto* suicide = std::get_if<Suicide>(&event)) {
      EXPECT_EQ(suicide->why.rule, DecisionRule::kSuicideCold);
      EXPECT_LE(suicide->why.observed, suicide->why.threshold);
    }
    if (const auto* migrated = std::get_if<MigrationExecuted>(&event)) {
      EXPECT_EQ(migrated->why.rule, DecisionRule::kMigrationBenefit);
      EXPECT_GE(migrated->why.observed, migrated->why.threshold);
    }
  }
  // The cluster must have grown replicas (availability floor alone
  // guarantees this), so the trace cannot be empty.
  EXPECT_GT(replica_added, 0u);
}

TEST(ObsIntegration, EpochStreamIsCompleteAndOrdered) {
  const Scenario scenario = small_scenario();
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  CaptureSink capture;
  sim->events().add_sink(&capture);
  for (Epoch e = 0; e < scenario.epochs; ++e) {
    const EpochReport report = sim->step();
    // The report a step returns is its last event, field for field.
    ASSERT_FALSE(capture.events.empty());
    ASSERT_TRUE(std::holds_alternative<EpochCompleted>(capture.events.back()));
    EXPECT_EQ(event_to_json(capture.events.back()),
              event_to_json(Event(report)));
  }

  EXPECT_EQ(test::count_events<EpochCompleted>(capture), scenario.epochs);
  Epoch last = 0;
  for (const Event& event : capture.events) {
    EXPECT_GE(event_epoch(event), last);
    last = event_epoch(event);
  }
}

TEST(ObsIntegration, FailureInjectionEmitsServerLifecycleEvents) {
  const Scenario scenario = small_scenario();
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  CaptureSink capture;
  sim->events().add_sink(&capture);
  for (Epoch e = 0; e < 30; ++e) sim->step();

  const auto victims = test::crash_now(*sim, 25);
  EXPECT_EQ(test::count_events<ServerFailed>(capture), victims.size());
  // With 25 of 100 servers gone some partition must have lost its primary
  // and been promoted (or reseeded).
  EXPECT_EQ(test::count_events<PrimaryPromoted>(capture) +
                test::count_events<Reseeded>(capture),
            sim->last_promotions().size());

  sim->recover_servers(victims);
  EXPECT_EQ(test::count_events<ServerRecovered>(capture), victims.size());
  sim->recover_servers(victims);  // already alive: no duplicate events
  EXPECT_EQ(test::count_events<ServerRecovered>(capture), victims.size());
}

TEST(ObsIntegration, LinkEventsFireOnActualTransitionsOnly) {
  const Scenario scenario = small_scenario();
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  CaptureSink capture;
  sim->events().add_sink(&capture);

  sim->fail_link(DatacenterId{0}, DatacenterId{1});
  sim->fail_link(DatacenterId{0}, DatacenterId{1});  // idempotent
  EXPECT_EQ(test::count_events<LinkFailed>(capture), 1u);
  sim->restore_link(DatacenterId{0}, DatacenterId{1});
  sim->restore_link(DatacenterId{0}, DatacenterId{1});
  EXPECT_EQ(test::count_events<LinkRestored>(capture), 1u);
}

TEST(ObsIntegration, DropReasonCountersReconcileWithTheTrace) {
  // A starved replication budget makes the engine refuse actions,
  // exercising the drop path deterministically.
  Scenario scenario = small_scenario();
  scenario.world.replication_bandwidth = 1;
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  CaptureSink capture;
  sim->events().add_sink(&capture);

  std::uint64_t reported_drops = 0;
  std::uint64_t reported_by_reason = 0;
  for (Epoch e = 0; e < scenario.epochs; ++e) {
    const EpochReport report = sim->step();
    reported_drops += report.dropped_actions;
    for (const std::uint32_t count : report.dropped_by_reason) {
      reported_by_reason += count;
    }
  }
  EXPECT_EQ(reported_drops, reported_by_reason);
  EXPECT_EQ(test::count_events<ActionDropped>(capture), reported_drops);
  std::uint64_t trace_by_reason = 0;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    trace_by_reason += test::count_dropped(capture, static_cast<DropReason>(r));
  }
  EXPECT_EQ(trace_by_reason, reported_drops);
}

TEST(ObsIntegration, RunPolicyAttachesAndFlushesTheSink) {
  Scenario scenario = small_scenario();
  scenario.epochs = 20;
  std::ostringstream out;
  ChromeTraceSink sink(out);
  scenario.fault_plan = test::crash_plan(10, 5);
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh, FaultPlan{},
                                   RfhPolicy::Options{}, &sink);
  EXPECT_EQ(run.series.size(), 20u);
  const std::string trace = out.str();
  // Flushed: the array is closed.
  EXPECT_EQ(trace.find_last_of(']'), trace.size() - 2);
  EXPECT_NE(trace.find("ServerFailed"), std::string::npos);
  EXPECT_NE(trace.find("EpochCompleted"), std::string::npos);
}

TEST(ObsIntegration, MetricsCarryPerReasonDropCounters) {
  Scenario scenario = small_scenario();
  scenario.world.replication_bandwidth = 1;
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  std::uint64_t total = 0;
  std::uint64_t by_reason = 0;
  for (const EpochMetrics& m : run.series) {
    total += m.dropped_this_epoch;
    by_reason += std::uint64_t{m.dropped_bandwidth} + m.dropped_storage_cap +
                 m.dropped_node_cap + m.dropped_dead_target +
                 m.dropped_invalid;
  }
  EXPECT_EQ(total, by_reason);
  EXPECT_GT(total, 0u);  // the cap must actually bite in this scenario
}

TEST(ObsIntegration, TracingDoesNotPerturbTheSimulation) {
  // Determinism guard: the same scenario with and without sinks produces
  // identical epoch series (observability is read-only).
  const Scenario scenario = small_scenario();
  auto traced = make_simulation(scenario, PolicyKind::kRfh);
  CaptureSink capture;
  std::ostringstream jsonl_out;
  JsonlSink jsonl(jsonl_out);
  traced->events().add_sink(&capture);
  traced->events().add_sink(&jsonl);
  auto plain = make_simulation(scenario, PolicyKind::kRfh);
  for (Epoch e = 0; e < 40; ++e) {
    const EpochReport a = traced->step();
    const EpochReport b = plain->step();
    ASSERT_DOUBLE_EQ(a.total_queries, b.total_queries);
    ASSERT_EQ(a.replications, b.replications);
    ASSERT_EQ(a.migrations, b.migrations);
    ASSERT_EQ(a.suicides, b.suicides);
    ASSERT_EQ(a.dropped_actions, b.dropped_actions);
    ASSERT_EQ(a.total_replicas, b.total_replicas);
  }
}

TEST(ObsIntegration, ProfilingAndTelemetryDoNotPerturbTheSimulation) {
  // Same guard for the telemetry layer: --profile / --metrics-out must
  // leave every simulation output bit-identical. Wall-clock timing feeds
  // the profiler and the registry, never the simulation.
  Scenario scenario = small_scenario();
  scenario.world.replication_bandwidth = 1;  // exercise the drop path too
  scenario.fault_plan = test::crash_plan(25, 10);

  const PolicyRun plain = run_policy(scenario, PolicyKind::kRfh);
  MetricRegistry registry;
  PhaseProfiler profiler;
  std::ostringstream trace;
  ChromeTraceSink sink(trace);
  const PolicyRun instrumented =
      run_policy(scenario, PolicyKind::kRfh, FaultPlan{},
                 RfhPolicy::Options{}, &sink, &registry, &profiler);

  ASSERT_EQ(plain.series.size(), instrumented.series.size());
  ASSERT_EQ(plain.killed, instrumented.killed);
  for (std::size_t e = 0; e < plain.series.size(); ++e) {
    const EpochMetrics& a = plain.series[e];
    const EpochMetrics& b = instrumented.series[e];
    ASSERT_DOUBLE_EQ(a.utilization, b.utilization);
    ASSERT_DOUBLE_EQ(a.unserved_fraction, b.unserved_fraction);
    ASSERT_DOUBLE_EQ(a.path_length, b.path_length);
    ASSERT_DOUBLE_EQ(a.load_imbalance, b.load_imbalance);
    ASSERT_DOUBLE_EQ(a.latency_mean_ms, b.latency_mean_ms);
    ASSERT_DOUBLE_EQ(a.replication_cost_total, b.replication_cost_total);
    ASSERT_DOUBLE_EQ(a.migration_cost_total, b.migration_cost_total);
    ASSERT_EQ(a.total_replicas, b.total_replicas);
    ASSERT_EQ(a.migrations_total, b.migrations_total);
    ASSERT_EQ(a.dropped_this_epoch, b.dropped_this_epoch);
  }
  // The instrumented run actually instrumented: phases were timed and the
  // trace carries nested PhaseSpan slices.
  EXPECT_EQ(profiler.epochs(), scenario.epochs);
  EXPECT_NE(trace.str().find("workload_gen"), std::string::npos);
}

}  // namespace
}  // namespace rfh
