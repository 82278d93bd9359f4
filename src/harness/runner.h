// Comparative experiment runner: the same scenario (identical world seed,
// workload stream and fault plan) executed once per policy, so the
// four curves in every figure face byte-identical demand. The four-policy
// comparison itself, run_comparison(), lives in exec/sweep.h.
#pragma once

#include <array>
#include <vector>

#include "fault/invariants.h"
#include "harness/scenario.h"
#include "metrics/collector.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"

namespace rfh {

struct PolicyRun {
  PolicyKind kind = PolicyKind::kRfh;
  std::vector<EpochMetrics> series;
  /// Servers killed by the fault plan, in order.
  std::vector<ServerId> killed;
  /// FaultInjected tallies from the fault plan (zero without one), total
  /// and per FaultKind.
  std::uint64_t faults_injected = 0;
  std::array<std::uint64_t, kFaultKindCount> faults_by_kind{};
  /// SLO breach episodes flagged by the watchdog, in epoch order (empty
  /// unless the scenario enables objectives via Scenario::slo).
  std::vector<SloBreachRecord> slo_breaches;
};

struct ComparativeResult {
  std::vector<PolicyRun> runs;

  [[nodiscard]] const PolicyRun& run(PolicyKind kind) const;
};

/// Run one policy through the scenario.
///
/// `trace_sink`, when non-null, is attached to the simulation's EventBus
/// before the first epoch and flushed after the last, so the whole run —
/// failure injection included — lands in the trace.
///
/// `metrics`, when non-null, receives the engine/router/policy counters
/// and gauges (see DESIGN.md "Telemetry") for the whole run. `profiler`,
/// when non-null, times every hot-path phase — including the harness's
/// own metric collection — and is finalized before this returns; it also
/// emits PhaseSpan events into the trace when one is attached. Both are
/// observational only: simulation outputs are bit-identical with or
/// without them.
///
/// One ChaosController applies the scenario's FaultPlan, then
/// `extra_faults`, before each epoch's step. `checker`, when non-null,
/// verifies the cross-cutting invariants (fault/invariants.h) after
/// every step.
///
/// `recorder`, when non-null, is attached as a second sink — typically a
/// TimelineStore (obs/timeline.h), so the run leaves a bounded causal
/// flight record next to (or instead of) the full trace. When the
/// scenario enables SLO objectives, an SloWatchdog observes every epoch
/// and its breach episodes land in PolicyRun::slo_breaches.
PolicyRun run_policy(const Scenario& scenario, PolicyKind kind,
                     const FaultPlan& extra_faults = {},
                     const RfhPolicy::Options& rfh = {},
                     EventSink* trace_sink = nullptr,
                     MetricRegistry* metrics = nullptr,
                     PhaseProfiler* profiler = nullptr,
                     InvariantChecker* checker = nullptr,
                     EventSink* recorder = nullptr);

}  // namespace rfh
