// The structured event taxonomy of the observability subsystem.
//
// Everything the simulator *does* — and, crucially, *why* — is describable
// as one of the typed events below. The engine and policies emit them
// through an EventBus (see event_bus.h); sinks serialize or aggregate
// them (see sinks.h). Events are plain aggregates over strong IDs and
// doubles, cheap to copy and trivially serializable, so a trace can be
// replayed, diffed, or loaded into Perfetto without the simulator.
//
// Design rule: this header depends only on common/ — the sim layer
// depends on obs, never the reverse.
#pragma once

#include <array>
#include <cstdint>
#include <variant>

#include "common/ids.h"
#include "common/units.h"

namespace rfh {

// ---------------------------------------------------------------------------
// Decision explanations
// ---------------------------------------------------------------------------

/// Which branch of the RFH decision tree (paper Fig. 2, Eqs. 12-17)
/// produced an action. Baseline policies leave kNone.
enum class DecisionRule : std::uint8_t {
  kNone = 0,
  /// Eq. 14: copy count below the availability floor r_min.
  kAvailabilityFloor,
  /// Eqs. 12-13: holder overloaded, replica grown at a gamma-qualified hub.
  kOverloadHub,
  /// Eq. 12 fired but no forwarder crossed gamma: relief forced onto the
  /// top forwarders anyway (the decision tree's "force" branch).
  kOverloadForced,
  /// Eq. 12 fired but no forwarder carries the traffic at all: the demand
  /// is local, so a copy is grown in the holder's own datacenter.
  kOverloadLocal,
  /// Eq. 16: relocating a cold replica to the hub clears the benefit bar.
  kMigrationBenefit,
  /// Eq. 15: replica cold below delta * q_bar for the streak window.
  kSuicideCold,
};
inline constexpr std::size_t kDecisionRuleCount = 7;

[[nodiscard]] const char* rule_name(DecisionRule rule) noexcept;
/// The inequality that fired, in the paper's notation (empty for kNone).
[[nodiscard]] const char* rule_inequality(DecisionRule rule) noexcept;

/// Attached by the policy to every action it emits: the observed values
/// and thresholds that made the chosen inequality fire. `observed` and
/// `threshold` are the two sides of rule_inequality(rule); q_bar and the
/// Table I coefficients give the reader enough to recompute it.
struct DecisionExplanation {
  DecisionRule rule = DecisionRule::kNone;
  /// Left-hand side of the fired inequality (e.g. the holder's smoothed
  /// traffic tr, or the copy count r for the availability floor).
  double observed = 0.0;
  /// Right-hand side (e.g. beta * q_bar, or r_min).
  double threshold = 0.0;
  /// The partition's smoothed per-requester demand q_bar (Eq. 9-11).
  double q_bar = 0.0;
  // Threshold coefficients in force when the decision was taken.
  double beta = 0.0;
  double gamma = 0.0;
  double delta = 0.0;
  double mu = 0.0;
  /// Copy count at decision time and the Eq. 14 floor.
  std::uint32_t replica_count = 0;
  std::uint32_t r_min = 0;
};

// ---------------------------------------------------------------------------
// Drop reasons
// ---------------------------------------------------------------------------

/// Why the engine refused an action during validation (engine.cpp's
/// apply_actions; a refused target names ClusterState::refusal's reason).
/// Ordered so the values double as counter indices.
enum class DropReason : std::uint8_t {
  /// Source out of per-epoch replication/migration bandwidth budget.
  kBandwidth = 0,
  /// Target over the phi storage-occupancy limit (Eq. 19).
  kStorageCap,
  /// Target at its virtual-node cap, or the partition at its copy cap.
  kNodeCap,
  /// Target (or migration source copy) dead or nonexistent.
  kDeadTarget,
  /// Duplicate copy, missing source replica, or primary-protection rules.
  kInvalid,
  /// EC zone-diversity rule: the target's datacenter already holds m
  /// fragments of the stripe (replica mode never emits this).
  kZoneDiversity,
  /// Never produced: every refusal names its constraint. Kept so the
  /// counter index and the dropped_unknown series stay stable.
  kUnknown,
};
inline constexpr std::size_t kDropReasonCount = 7;

[[nodiscard]] const char* drop_reason_name(DropReason reason) noexcept;

/// Which action family a dropped action belonged to.
enum class ActionKind : std::uint8_t { kReplicate = 0, kMigrate, kSuicide };

[[nodiscard]] const char* action_kind_name(ActionKind kind) noexcept;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A copy was created (replication applied and accounted per Eq. 1).
struct ReplicaAdded {
  Epoch epoch = 0;
  PartitionId partition;
  ServerId source;  // the primary that sourced the transfer
  ServerId target;
  double cost = 0.0;  // Eq. 1 transfer cost
  DecisionExplanation why;
};

/// A copy was relocated (Eq. 16 benefit bar cleared).
struct MigrationExecuted {
  Epoch epoch = 0;
  PartitionId partition;
  ServerId from;
  ServerId to;
  double cost = 0.0;
  DecisionExplanation why;
};

/// A cold replica removed itself (Eq. 15).
struct Suicide {
  Epoch epoch = 0;
  PartitionId partition;
  ServerId server;
  DecisionExplanation why;
};

/// The engine refused a policy action during validation.
struct ActionDropped {
  Epoch epoch = 0;
  PartitionId partition;
  ActionKind kind = ActionKind::kReplicate;
  DropReason reason = DropReason::kInvalid;
  /// The server the action targeted (replication/migration target, or the
  /// suiciding copy's host); invalid when the action itself was malformed.
  ServerId target;
};

/// Failure injection: a live server was killed.
struct ServerFailed {
  Epoch epoch = 0;
  ServerId server;
};

/// Failure injection: a dead server came back online.
struct ServerRecovered {
  Epoch epoch = 0;
  ServerId server;
};

/// A surviving copy was promoted to primary after its holder died.
struct PrimaryPromoted {
  Epoch epoch = 0;
  PartitionId partition;
  ServerId new_primary;
};

/// No copy survived: the partition was reseeded empty at the ring
/// successor (counted as a data loss).
struct Reseeded {
  Epoch epoch = 0;
  PartitionId partition;
  ServerId new_home;
};

/// An inter-datacenter link went down; routes were recomputed.
struct LinkFailed {
  Epoch epoch = 0;
  DatacenterId a;
  DatacenterId b;
};

/// A previously failed link came back.
struct LinkRestored {
  Epoch epoch = 0;
  DatacenterId a;
  DatacenterId b;
};

/// A chaos-plan entry was applied by the fault subsystem (src/fault/):
/// one event per injection, emitted before the epoch it acts on steps.
/// `kind` is a static-duration string (fault_kind_name): "crash",
/// "recover", "outage", "linkdown", "flap", "churn", "flashcrowd",
/// "zoneoutage" or "stalestats". `servers` counts the servers killed,
/// revived or frozen (0 for link and traffic events); dc / link
/// endpoints are invalid when inapplicable. `magnitude` is the
/// flash-crowd traffic factor, or the zone (continent) index for
/// "zoneoutage" (0 otherwise).
struct FaultInjected {
  Epoch epoch = 0;
  const char* kind = "";
  std::uint32_t servers = 0;
  DatacenterId dc;
  DatacenterId link_a;
  DatacenterId link_b;
  double magnitude = 0.0;
};

/// Everything observable about one epoch: Simulation::step returns it
/// and emits it as the step's last event.
struct EpochCompleted {
  Epoch epoch = 0;
  double total_queries = 0.0;
  double unserved_queries = 0.0;
  double mean_path_length = 0.0;
  std::uint32_t replications = 0;
  std::uint32_t migrations = 0;
  std::uint32_t suicides = 0;
  std::uint32_t dropped_actions = 0;
  /// dropped_actions broken down by DropReason (indexed by its value).
  std::array<std::uint32_t, kDropReasonCount> dropped_by_reason{};
  /// Availability-floor repairs dropped on a node cap this epoch: each
  /// one is a partition below its target copy count whose repair the
  /// capacity layer refused (see kStarvedRepairWarnThreshold).
  std::uint32_t repairs_starved = 0;
  double replication_cost = 0.0;
  double migration_cost = 0.0;
  std::uint32_t total_replicas = 0;  // copies across partitions, primaries included
};
using EpochReport = EpochCompleted;

/// Profiler span (telemetry/profiler.h): wall-clock cost of one engine
/// phase within one epoch. `phase` is a static-duration string
/// (phase_name()); start/duration are fractions of the epoch's measured
/// wall time, so the ChromeTraceSink can nest the span inside the
/// simulated-time epoch slice regardless of the real-to-simulated ratio.
/// Only emitted when a PhaseProfiler is attached — wall times are
/// observational and never feed simulation state.
struct PhaseSpan {
  Epoch epoch = 0;
  const char* phase = "";
  double start_frac = 0.0;
  double dur_frac = 0.0;
  double wall_ms = 0.0;
};

/// One epoch of stream-layer accounting (src/stream/): the queueing
/// counterpart of EpochCompleted. Query counts are weighted doubles like
/// everywhere else, and arrivals == served + blocked + dropped (the
/// kStreamAccounting invariant).
struct StreamEpochSummary {
  Epoch epoch = 0;
  /// Total arrivals this epoch == the batch's total queries.
  double arrivals = 0.0;
  /// Accepted and served through a queue (latency sampled).
  double served = 0.0;
  /// Blocked by the batch engine (capacity/lost-primary) before reaching
  /// any queue.
  double blocked = 0.0;
  /// Dropped by queue backpressure (--queue-cap).
  double dropped = 0.0;
  /// Largest waiting-room occupancy across all servers (<= --queue-cap).
  std::uint32_t max_queue_depth = 0;
  /// Weighted mean queueing wait of served queries, ms (after the
  /// (1 + cv^2) M/G/c correction).
  double mean_wait_ms = 0.0;
  /// End-to-end latency percentiles (routing + queueing + blocking
  /// penalty) over this epoch's sampled queries.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};
using StreamEpochStats = StreamEpochSummary;

/// A server's waiting room hit its --queue-cap and shed load this epoch
/// (one event per saturated server per epoch, emitted at epoch end).
struct QueueSaturated {
  Epoch epoch = 0;
  ServerId server;
  DatacenterId dc;
  std::uint32_t max_depth = 0;
  std::uint32_t cap = 0;
  double dropped = 0.0;
};

/// A partition's smoothed demand q_bar (Eqs. 9-11) moved sharply since
/// the last emitted baseline — the statistical echo of a perturbation
/// (fault, flash crowd, link rewire) on its way to tripping a threshold
/// inequality. Emitted only when a sink is attached, and only when the
/// relative move exceeds the engine's shift threshold, so steady-state
/// drift stays silent.
struct TrafficShift {
  Epoch epoch = 0;
  PartitionId partition;
  /// q_bar at the previous baseline and now.
  double q_bar_before = 0.0;
  double q_bar_after = 0.0;
};

/// A decision-tree inequality fired for a partition: emitted by the
/// engine as it begins validating the rule's action, before the
/// ReplicaAdded / MigrationExecuted / Suicide / ActionDropped outcome,
/// which is parented to this event in the causal chain.
struct RuleFired {
  Epoch epoch = 0;
  PartitionId partition;
  DecisionRule rule = DecisionRule::kNone;
  /// The two sides of rule_inequality(rule) plus the smoothed demand.
  double observed = 0.0;
  double threshold = 0.0;
  double q_bar = 0.0;
};

/// The SLO watchdog (telemetry/slo.h) entered breach on one objective:
/// both the short- and long-window burn rates crossed the alert
/// threshold. Edge-triggered — one event per breach episode, not per
/// breaching epoch.
struct SloBreach {
  Epoch epoch = 0;
  /// Static-duration objective name (slo_objective_name): "availability",
  /// "stream_p99", "migration_rate" or "drop_rate".
  const char* objective = "";
  /// Long-window mean of the objective's signal vs its target.
  double observed = 0.0;
  double target = 0.0;
  double burn_short = 0.0;
  double burn_long = 0.0;
};

/// Fault injection: a server's TrafficStats smoothing was frozen (it
/// keeps reporting stale load numbers into Eqs. 9-11/17) or thawed.
/// Emitted once per transition by the stalestats chaos event.
struct StatsFrozen {
  Epoch epoch = 0;
  ServerId server;
  bool frozen = true;
};

/// EC mode: failures left the stripe with fewer than k live fragments —
/// the partition is reconstruction-infeasible (counted as a data loss)
/// until repair replication brings it back to k.
struct StripeLost {
  Epoch epoch = 0;
  PartitionId partition;
  /// Live fragments remaining (0 < fragments_alive < k; a stripe losing
  /// every fragment is reported through Reseeded instead).
  std::uint32_t fragments_alive = 0;
};

/// EC mode: repairs restored a previously lost stripe to at least k live
/// fragments; reads can reconstruct again.
struct StripeReconstructed {
  Epoch epoch = 0;
  PartitionId partition;
};

using Event =
    std::variant<ReplicaAdded, MigrationExecuted, Suicide, ActionDropped,
                 ServerFailed, ServerRecovered, PrimaryPromoted, Reseeded,
                 LinkFailed, LinkRestored, FaultInjected, EpochCompleted,
                 PhaseSpan, StreamEpochSummary, QueueSaturated, TrafficShift,
                 RuleFired, SloBreach, StatsFrozen, StripeLost,
                 StripeReconstructed>;

/// Stable PascalCase type name ("ReplicaAdded", ...), used by sinks and
/// the CLI's --trace-filter grammar.
[[nodiscard]] const char* event_name(const Event& event) noexcept;

/// event_name by variant alternative index ("?" when out of range) —
/// lets compact records (obs/timeline.h) name their type without
/// materializing an Event.
[[nodiscard]] const char* event_index_name(std::size_t index) noexcept;

/// The epoch stamped on the event (every alternative carries one).
[[nodiscard]] Epoch event_epoch(const Event& event) noexcept;

}  // namespace rfh
