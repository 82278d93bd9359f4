// Telemetry registry + phase profiler: unit behaviour, export formats,
// and end-to-end reconciliation against the event-trace counters and the
// engine's own EpochReport over the same run.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#include "harness/runner.h"
#include "harness/scenario.h"
#include "obs/sinks.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "test_util.h"

namespace rfh {
namespace {

Scenario small_scenario() {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 60;
  return scenario;
}

// --- registry ----------------------------------------------------------

TEST(MetricRegistry, FindOrCreateReturnsStableHandles) {
  MetricRegistry reg;
  Counter& c = reg.counter("rfh_test_total");
  c.inc();
  c.inc(2.5);
  // Same (name, labels) -> same instrument.
  EXPECT_EQ(&reg.counter("rfh_test_total"), &c);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);

  // Handles survive registry growth (instruments are heap-allocated).
  for (int i = 0; i < 100; ++i) {
    reg.counter("rfh_filler_total", {{"i", std::to_string(i)}});
  }
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_EQ(&reg.counter("rfh_test_total"), &c);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(MetricRegistry, LabelsDistinguishSeries) {
  MetricRegistry reg;
  Counter& a = reg.counter("rfh_actions_total", {{"kind", "replicate"}});
  Counter& b = reg.counter("rfh_actions_total", {{"kind", "migrate"}});
  EXPECT_NE(&a, &b);
  a.inc(5.0);
  b.inc(7.0);
  const Counter* found =
      reg.find_counter("rfh_actions_total", {{"kind", "migrate"}});
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->value(), 7.0);
  EXPECT_EQ(reg.find_counter("rfh_actions_total", {{"kind", "suicide"}}),
            nullptr);
  EXPECT_EQ(reg.find_counter("rfh_absent_total"), nullptr);
}

TEST(MetricRegistry, GaugeAndHistogram) {
  MetricRegistry reg;
  Gauge& g = reg.gauge("rfh_replicas");
  g.set(42.0);
  g.set(17.0);  // last write wins
  EXPECT_DOUBLE_EQ(reg.find_gauge("rfh_replicas")->value(), 17.0);

  HistogramMetric& h = reg.histogram("rfh_latency_ms");
  h.observe(10.0);
  h.observe(20.0, 3.0);
  const HistogramMetric* found = reg.find_histogram("rfh_latency_ms");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->histogram().total_weight(), 4.0);
  EXPECT_DOUBLE_EQ(found->histogram().mean(), (10.0 + 60.0) / 4.0);
}

TEST(MetricRegistryDeath, TypeMismatchAsserts) {
  MetricRegistry reg;
  reg.counter("rfh_mixed");
  EXPECT_DEATH(reg.gauge("rfh_mixed"), "");
}

TEST(MetricRegistry, PrometheusExposition) {
  MetricRegistry reg;
  reg.counter("rfh_queries_total", {}, "Queries offered").inc(123.0);
  reg.gauge("rfh_epoch").set(59.0);
  reg.counter("rfh_actions_total", {{"kind", "replicate"}}).inc(4.0);
  reg.histogram("rfh_phase_ms", {{"phase", "routing"}}).observe(2.5);

  std::ostringstream out;
  reg.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP rfh_queries_total Queries offered"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rfh_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rfh_queries_total 123"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rfh_epoch gauge"), std::string::npos);
  EXPECT_NE(text.find("rfh_epoch 59"), std::string::npos);
  EXPECT_NE(text.find("rfh_actions_total{kind=\"replicate\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rfh_phase_ms summary"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("rfh_phase_ms_count{phase=\"routing\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rfh_phase_ms_sum{phase=\"routing\"} 2.5"),
            std::string::npos);
}

TEST(MetricRegistry, JsonExport) {
  MetricRegistry reg;
  reg.counter("rfh_queries_total", {}, "Queries offered").inc(123.0);
  reg.counter("rfh_actions_total", {{"kind", "migrate"}}).inc(9.0);
  reg.histogram("rfh_phase_ms").observe(1.0);

  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\":\"rfh-metrics/1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rfh_queries_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":123"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"migrate\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\":{\"count\":1"), std::string::npos);
  // Well-formed document boundaries.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

// --- profiler ----------------------------------------------------------

TEST(PhaseProfiler, DisabledTimerNeverTouchesAProfiler) {
  // The zero-cost path: a null profiler reduces ScopedTimer to a pointer
  // test at both ends.
  for (int i = 0; i < 1000; ++i) {
    const ScopedTimer timer(nullptr, Phase::kRouting);
  }
  SUCCEED();
}

TEST(PhaseProfiler, RecordAccumulatesPerPhaseTotals) {
  PhaseProfiler profiler;
  profiler.begin_epoch(0);
  const auto t0 = PhaseProfiler::Clock::now();
  profiler.record(Phase::kRouting, t0, t0 + std::chrono::milliseconds(5));
  profiler.record(Phase::kRouting, t0, t0 + std::chrono::milliseconds(3));
  profiler.record(Phase::kPolicyDecide, t0,
                  t0 + std::chrono::microseconds(250));
  profiler.finalize();

  const PhaseProfiler::PhaseTotals routing =
      profiler.totals(Phase::kRouting);
  EXPECT_EQ(routing.calls, 2u);
  EXPECT_NEAR(routing.total_ms, 8.0, 1e-6);
  EXPECT_NEAR(routing.max_ms, 5.0, 1e-6);
  const PhaseProfiler::PhaseTotals decide =
      profiler.totals(Phase::kPolicyDecide);
  EXPECT_EQ(decide.calls, 1u);
  EXPECT_NEAR(decide.total_ms, 0.25, 1e-6);
  EXPECT_EQ(profiler.totals(Phase::kWorkloadGen).calls, 0u);
  EXPECT_EQ(profiler.epochs(), 1u);
}

TEST(PhaseProfiler, FinalizeIsIdempotent) {
  PhaseProfiler profiler;
  profiler.begin_epoch(0);
  profiler.finalize();
  profiler.finalize();
  EXPECT_EQ(profiler.epochs(), 1u);
}

TEST(PhaseProfiler, ProfiledSimulationCoversTheEpochWall) {
  const Scenario scenario = small_scenario();
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  PhaseProfiler profiler;
  sim->set_profiler(&profiler);
  for (Epoch e = 0; e < scenario.epochs; ++e) sim->step();
  profiler.finalize();

  EXPECT_EQ(profiler.epochs(), scenario.epochs);
  for (const Phase phase :
       {Phase::kWorkloadGen, Phase::kRouting, Phase::kStatsUpdate,
        Phase::kPolicyDecide, Phase::kActionApply}) {
    EXPECT_EQ(profiler.totals(phase).calls, scenario.epochs)
        << phase_name(phase);
  }
  // The five engine phases blanket step(); anything else in the loop is
  // glue. 0.9 leaves slack for noisy CI machines (rfh_cli shows ~0.99).
  EXPECT_GT(profiler.coverage(), 0.9);
  EXPECT_GT(profiler.epoch_wall_ms(), 0.0);

  std::ostringstream table;
  profiler.write_table(table, "# ");
  EXPECT_NE(table.str().find("# workload_gen"), std::string::npos);
  EXPECT_NE(table.str().find("cover"), std::string::npos);
}

TEST(PhaseProfiler, EmitsPhaseSpansIntoTheTrace) {
  const Scenario scenario = small_scenario();
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  CaptureSink capture;
  sim->events().add_sink(&capture);
  PhaseProfiler profiler;
  profiler.set_trace(&sim->events());
  sim->set_profiler(&profiler);
  for (Epoch e = 0; e < 10; ++e) sim->step();
  profiler.finalize();

  // Five engine phases ran in every one of the 10 closed windows.
  EXPECT_EQ(test::count_events<PhaseSpan>(capture), 50u);
}

TEST(PhaseProfiler, RecordsHistogramsIntoAnAttachedRegistry) {
  const Scenario scenario = small_scenario();
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  MetricRegistry registry;
  PhaseProfiler profiler;
  profiler.attach_registry(registry);
  sim->set_profiler(&profiler);
  for (Epoch e = 0; e < 20; ++e) sim->step();
  profiler.finalize();

  const HistogramMetric* routing = registry.find_histogram(
      "rfh_phase_duration_ms", {{"phase", "routing"}});
  ASSERT_NE(routing, nullptr);
  EXPECT_DOUBLE_EQ(routing->histogram().total_weight(), 20.0);
  const HistogramMetric* epoch =
      registry.find_histogram("rfh_epoch_duration_ms");
  ASSERT_NE(epoch, nullptr);
  EXPECT_DOUBLE_EQ(epoch->histogram().total_weight(), 20.0);
}

// --- reconciliation ----------------------------------------------------

TEST(TelemetryIntegration, RegistryReconcilesWithTraceAndReports) {
  // One run, three observers: the captured event stream, the
  // EpochReport stream, and the metric registry must tell the same
  // story. A starved replication budget plus a failure exercises drops
  // and losses.
  Scenario scenario = small_scenario();
  scenario.world.replication_bandwidth = 1;
  auto sim = make_simulation(scenario, PolicyKind::kRfh);
  CaptureSink capture;
  sim->events().add_sink(&capture);
  MetricRegistry registry;
  sim->set_telemetry(&registry);

  double queries = 0.0;
  std::uint64_t replications = 0;
  std::uint64_t migrations = 0;
  std::uint64_t suicides = 0;
  std::array<std::uint64_t, kDropReasonCount> dropped{};
  std::uint32_t last_replicas = 0;
  for (Epoch e = 0; e < scenario.epochs; ++e) {
    if (e == 30) test::crash_now(*sim, 20);
    const EpochReport report = sim->step();
    queries += report.total_queries;
    replications += report.replications;
    migrations += report.migrations;
    suicides += report.suicides;
    for (std::size_t r = 0; r < kDropReasonCount; ++r) {
      dropped[r] += report.dropped_by_reason[r];
    }
    last_replicas = report.total_replicas;
  }

  const auto counter_value = [&](const char* name, MetricLabels labels) {
    const Counter* c = registry.find_counter(name, labels);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : -1.0;
  };

  // Registry vs. EpochReport sums.
  EXPECT_DOUBLE_EQ(counter_value("rfh_queries_total", {}), queries);
  EXPECT_DOUBLE_EQ(counter_value("rfh_epochs_total", {}),
                   static_cast<double>(scenario.epochs));
  // Registry vs. event counts over the captured stream.
  EXPECT_DOUBLE_EQ(
      counter_value("rfh_actions_applied_total", {{"kind", "replicate"}}),
      static_cast<double>(test::count_events<ReplicaAdded>(capture)));
  EXPECT_DOUBLE_EQ(
      counter_value("rfh_actions_applied_total", {{"kind", "migrate"}}),
      static_cast<double>(test::count_events<MigrationExecuted>(capture)));
  EXPECT_DOUBLE_EQ(
      counter_value("rfh_actions_applied_total", {{"kind", "suicide"}}),
      static_cast<double>(test::count_events<Suicide>(capture)));
  EXPECT_EQ(test::count_events<ReplicaAdded>(capture), replications);
  EXPECT_EQ(test::count_events<MigrationExecuted>(capture), migrations);
  EXPECT_EQ(test::count_events<Suicide>(capture), suicides);
  // Per-reason drops agree three ways.
  double dropped_total = 0.0;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    const auto reason = static_cast<DropReason>(r);
    const double v = counter_value("rfh_actions_dropped_total",
                                   {{"reason", drop_reason_name(reason)}});
    EXPECT_DOUBLE_EQ(v, static_cast<double>(dropped[r]))
        << drop_reason_name(reason);
    EXPECT_EQ(test::count_dropped(capture, reason), dropped[r])
        << drop_reason_name(reason);
    dropped_total += v;
  }
  EXPECT_GT(dropped_total, 0.0);  // the starved budget must actually bite
  // Gauges mirror the last report / live state.
  EXPECT_DOUBLE_EQ(registry.find_gauge("rfh_replicas")->value(),
                   static_cast<double>(last_replicas));
  EXPECT_DOUBLE_EQ(registry.find_gauge("rfh_epoch")->value(),
                   static_cast<double>(scenario.epochs - 1));
  EXPECT_DOUBLE_EQ(
      registry.find_gauge("rfh_live_servers")->value(),
      static_cast<double>(sim->cluster().live_server_count()));
  // Data losses counted where the engine counts them.
  EXPECT_DOUBLE_EQ(counter_value("rfh_data_losses_total", {}),
                   static_cast<double>(sim->data_losses()));
  // Router and policy exported their own counters into the same registry.
  EXPECT_GT(counter_value("rfh_router_routes_total", {}), 0.0);
  EXPECT_DOUBLE_EQ(counter_value("rfh_policy_decide_calls_total", {}),
                   static_cast<double>(scenario.epochs));
}

TEST(TelemetryIntegration, RunPolicyWiresRegistryAndProfiler) {
  Scenario scenario = small_scenario();
  scenario.epochs = 30;
  MetricRegistry registry;
  PhaseProfiler profiler;
  const PolicyRun run =
      run_policy(scenario, PolicyKind::kRfh, {}, RfhPolicy::Options{},
                 nullptr, &registry, &profiler);
  EXPECT_EQ(run.series.size(), 30u);
  EXPECT_EQ(profiler.epochs(), 30u);
  // The runner times its own metric collection into the profile.
  EXPECT_EQ(profiler.totals(Phase::kMetricsCollect).calls, 30u);
  EXPECT_GT(profiler.coverage(), 0.9);
  // The profiler's histograms landed in the run's registry.
  EXPECT_NE(registry.find_histogram("rfh_epoch_duration_ms"), nullptr);
  EXPECT_DOUBLE_EQ(
      registry.find_counter("rfh_epochs_total", {})->value(), 30.0);
}

// --- determinism regression under a chaos plan -------------------------

namespace {

Scenario chaos_scenario() {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 60;
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.at = 10;
  crash.count = 4;
  scenario.fault_plan.add(crash);
  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 20;
  churn.until = 50;
  churn.period = 5;
  churn.kill = 1;
  churn.recover = 1;
  scenario.fault_plan.add(churn);
  FaultEvent crowd;
  crowd.kind = FaultKind::kFlashCrowd;
  crowd.at = 30;
  crowd.duration = 10;
  crowd.factor = 2.5;
  scenario.fault_plan.add(crowd);
  return scenario;
}

void expect_identical_series(const PolicyRun& a, const PolicyRun& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].total_replicas, b.series[i].total_replicas) << i;
    EXPECT_EQ(a.series[i].migrations_total, b.series[i].migrations_total)
        << i;
    EXPECT_DOUBLE_EQ(a.series[i].utilization, b.series[i].utilization) << i;
    EXPECT_DOUBLE_EQ(a.series[i].latency_mean_ms, b.series[i].latency_mean_ms)
        << i;
    EXPECT_DOUBLE_EQ(a.series[i].replication_cost_total,
                     b.series[i].replication_cost_total)
        << i;
  }
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_by_kind, b.faults_by_kind);
}

}  // namespace

TEST(ChaosDeterminism, ObserversNeverPerturbAPlannedRun) {
  const Scenario scenario = chaos_scenario();
  // Bare run: no observers at all.
  const PolicyRun bare = run_policy(scenario, PolicyKind::kRfh);

  // Fully instrumented run: trace sink + registry + profiler + checker.
  std::ostringstream trace;
  JsonlSink sink(trace);
  MetricRegistry registry;
  PhaseProfiler profiler;
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun instrumented =
      run_policy(scenario, PolicyKind::kRfh, {}, RfhPolicy::Options{}, &sink,
                 &registry, &profiler, &checker);

  expect_identical_series(bare, instrumented);
  EXPECT_TRUE(checker.violations().empty()) << checker.summary();
  // The chaos injections really showed up in trace and telemetry.
  EXPECT_NE(trace.str().find("FaultInjected"), std::string::npos);
  EXPECT_GT(instrumented.faults_injected, 0u);
  const Counter* injected = registry.find_counter(
      "rfh_faults_injected_total", {{"kind", "churn"}});
  ASSERT_NE(injected, nullptr);
  EXPECT_GT(injected->value(), 0.0);
}

TEST(ChaosDeterminism, ConsecutiveRunsAreBitIdentical) {
  const Scenario scenario = chaos_scenario();
  const PolicyRun a = run_policy(scenario, PolicyKind::kRfh);
  const PolicyRun b = run_policy(scenario, PolicyKind::kRfh);
  expect_identical_series(a, b);
}

}  // namespace
}  // namespace rfh
