#include "harness/runner.h"

#include <optional>

#include "common/assert.h"
#include "consistency/tracker.h"
#include "fault/chaos.h"
#include "stream/stream_sim.h"

namespace rfh {

const PolicyRun& ComparativeResult::run(PolicyKind kind) const {
  for (const PolicyRun& r : runs) {
    if (r.kind == kind) return r;
  }
  RFH_UNREACHABLE("no run for requested policy");
}

PolicyRun run_policy(const Scenario& scenario, PolicyKind kind,
                     const FaultPlan& extra_faults,
                     const RfhPolicy::Options& rfh, EventSink* trace_sink,
                     MetricRegistry* registry, PhaseProfiler* profiler,
                     InvariantChecker* checker, EventSink* recorder) {
  PolicyRun run;
  run.kind = kind;
  auto sim = make_simulation(scenario, kind, rfh);
  if (trace_sink != nullptr) sim->events().add_sink(trace_sink);
  if (recorder != nullptr) sim->events().add_sink(recorder);
  if (registry != nullptr) sim->set_telemetry(registry);
  if (profiler != nullptr) {
    profiler->set_trace(&sim->events());
    if (registry != nullptr) profiler->attach_registry(*registry);
    sim->set_profiler(profiler);
  }
  MetricsCollector collector;

  // Streaming-load layer: attach the flow log so propagate() records its
  // absorption decisions, then queue the epoch's arrivals after each
  // step. Observational — batch-side results are byte-identical with or
  // without it (tests/stream_test.cpp).
  std::optional<StreamSimulator> stream;
  if (scenario.workload == WorkloadKind::kStream) {
    stream.emplace(sim->world(), registry, scenario.stream,
                   scenario.sim.seed);
    sim->set_flow_log(&stream->flow_log());
  }

  std::optional<ConsistencyTracker> tracker;
  if (scenario.write_fraction > 0.0) {
    tracker.emplace(scenario.sim.partitions,
                    static_cast<std::uint32_t>(sim->topology().server_count()));
  }

  // One controller injects every fault; the plans are copied together
  // only when both carry events.
  std::optional<ChaosController> chaos;
  if (!scenario.fault_plan.empty() && !extra_faults.empty()) {
    FaultPlan plan = scenario.fault_plan;
    for (const FaultEvent& event : extra_faults.events()) plan.add(event);
    chaos.emplace(plan, scenario.sim.seed);
  } else if (!scenario.fault_plan.empty() || !extra_faults.empty()) {
    chaos.emplace(extra_faults.empty() ? scenario.fault_plan : extra_faults,
                  scenario.sim.seed);
  }

  std::optional<SloWatchdog> watchdog;
  if (scenario.slo.enabled()) {
    watchdog.emplace(scenario.slo, &sim->events(), registry);
  }

  auto note_failures = [&](std::span<const ServerId> victims) {
    if (!tracker) return;
    // Promotions first (they read the survivors' versions), then forget
    // the dead servers' copy state.
    for (const Simulation::Promotion& promo : sim->last_promotions()) {
      tracker->on_promote(promo.partition, promo.new_primary);
    }
    for (const ServerId victim : victims) {
      tracker->on_server_failed(victim);
    }
  };

  for (Epoch e = 0; e < scenario.epochs; ++e) {
    if (chaos) {
      const ChaosController::Applied applied =
          chaos->before_epoch(*sim, e, note_failures);
      run.killed.insert(run.killed.end(), applied.killed.begin(),
                        applied.killed.end());
    }
    const EpochReport report = sim->step();
    if (checker != nullptr) checker->check_epoch(*sim, report);
    std::optional<StreamEpochStats> stream_stats;
    if (stream) {
      const ScopedTimer stream_timer(profiler, Phase::kStreamAssign);
      stream_stats = stream->process_epoch(*sim, report);
      if (checker != nullptr) {
        checker->check_stream(*stream_stats, scenario.stream,
                              report.total_queries);
      }
    }
    const ScopedTimer collect_timer(profiler, Phase::kMetricsCollect);
    EpochMetrics metrics = collector.collect(*sim, report);
    if (stream_stats) {
      metrics.stream_arrivals = stream_stats->arrivals;
      metrics.stream_served = stream_stats->served;
      metrics.stream_blocked = stream_stats->blocked;
      metrics.stream_dropped = stream_stats->dropped;
      metrics.stream_max_queue_depth = stream_stats->max_queue_depth;
      metrics.stream_wait_mean_ms = stream_stats->mean_wait_ms;
      metrics.stream_p50_ms = stream_stats->p50_ms;
      metrics.stream_p99_ms = stream_stats->p99_ms;
      metrics.stream_p999_ms = stream_stats->p999_ms;
    }
    if (tracker) {
      std::vector<double> writes(scenario.sim.partitions, 0.0);
      for (std::uint32_t p = 0; p < scenario.sim.partitions; ++p) {
        writes[p] = scenario.write_fraction *
                    sim->traffic().partition_queries(PartitionId{p});
      }
      tracker->advance(sim->cluster(), sim->topology(), sim->paths(), writes);
      metrics.mean_replica_lag = tracker->mean_replica_lag(sim->cluster());
      metrics.stale_read_fraction =
          tracker->stale_read_fraction(sim->traffic(), sim->cluster());
      metrics.lost_writes_total = tracker->lost_writes();
    }
    if (watchdog) {
      // Objective signals come from the same EpochMetrics the figures
      // plot, so breach epochs reconcile with the published series.
      // Stream scenarios measure latency/drops at the queueing layer;
      // batch scenarios fall back to the routing-side equivalents.
      SloSample sample;
      sample.availability = 1.0 - metrics.unserved_fraction;
      sample.stream_p99_ms =
          stream_stats ? metrics.stream_p99_ms : metrics.latency_p99_ms;
      sample.migrations =
          static_cast<double>(metrics.migrations_this_epoch);
      sample.drop_rate = stream_stats && metrics.stream_arrivals > 0.0
                             ? metrics.stream_dropped / metrics.stream_arrivals
                             : metrics.unserved_fraction;
      watchdog->observe(e, sample);
    }
    run.series.push_back(metrics);
  }
  if (watchdog) run.slo_breaches = watchdog->breaches();
  if (chaos) {
    run.faults_injected = chaos->injected_total();
    run.faults_by_kind = chaos->injected_by_kind();
  }
  // Close the last profiler window before the trace is finalized so its
  // PhaseSpan events still reach the caller's sink.
  if (profiler != nullptr) profiler->finalize();
  // Finalize the trace while the caller's sink is guaranteed alive.
  sim->events().close();
  return run;
}

}  // namespace rfh
