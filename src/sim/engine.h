// The epoch-driven simulation engine.
//
// One step() is one epoch (Table I: 10 seconds of wall time):
//   1. the workload generator emits per-(partition, requester) demand;
//   2. every flow is routed along its fixed datacenter path and absorbed
//      by replicas along the way — the residual-traffic propagation of
//      Eqs. 2-8 at server granularity;
//   3. the smoothed statistics (Eqs. 9-11) are updated;
//   4. the installed replication policy decides actions;
//   5. the engine validates and applies the actions under liveness,
//      storage-limit (Eq. 19), virtual-node-cap and per-server
//      replication/migration bandwidth constraints, accounting each
//      transfer's cost per Eq. 1:  c = d * f * s / b.
//
// Failure injection (fail_servers / fail_random_servers / recover_servers)
// may be called between steps; lost primaries are promoted from surviving
// copies (highest smoothed traffic first), or re-seeded at the ring
// successor when no copy survives (counted as a data loss).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/event_bus.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "net/graph.h"
#include "net/shortest_paths.h"
#include "routing/router.h"
#include "sim/cluster.h"
#include "sim/config.h"
#include "sim/flow_log.h"
#include "sim/policy.h"
#include "sim/stats.h"
#include "sim/traffic.h"
#include "topology/world.h"
#include "workload/generator.h"

namespace rfh {

/// RNG stream fork tags. The engine forks one independent stream per
/// concern from the scenario seed; the differential oracle
/// (src/check/reference.cpp) forks the same tags so its workload stream
/// is bit-identical to the engine's.
inline constexpr std::uint64_t kWorkloadStreamTag = 0x776B6C64;  // "wkld"
inline constexpr std::uint64_t kPolicyStreamTag = 0x706F6C69;    // "poli"
inline constexpr std::uint64_t kFailureStreamTag = 0x6661696C;   // "fail"
/// Arrival-timestamp stream for src/stream/: forked per (epoch, DC) so
/// parallel sweeps and the batch engine never contend for the same
/// stream (see stream/arrival.cpp).
inline constexpr std::uint64_t kStreamStreamTag = 0x7374726D;  // "strm"

/// Relative q_bar move that emits a TrafficShift event: the engine keeps
/// a per-partition baseline and fires when |q_bar - baseline| crosses
/// this fraction of the baseline (then re-baselines), so steady-state
/// drift stays silent and only perturbation echoes enter the trace.
inline constexpr double kTrafficShiftThreshold = 0.25;

/// kNodeCap drops of availability-floor repairs above this count per
/// epoch emit a once-per-epoch warning and are tallied into
/// rfh_repairs_starved_total — the silent repair-starvation signal the
/// default vnode cap used to hide at 10k+ servers.
inline constexpr std::uint32_t kStarvedRepairWarnThreshold = 0;

/// Everything observable about one epoch, for metrics collection.
struct EpochReport {
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
  /// Availability-floor repairs dropped on a node cap this epoch — each
  /// one is a partition below its target copy count whose repair the
  /// capacity layer refused (see kStarvedRepairWarnThreshold).
  std::uint32_t repairs_starved = 0;
  double replication_cost = 0.0;
  double migration_cost = 0.0;
  std::uint32_t total_replicas = 0;  // copies across partitions, primaries included
};

class Simulation {
 public:
  Simulation(World world, const SimConfig& config,
             std::unique_ptr<WorkloadGenerator> workload,
             std::unique_ptr<ReplicationPolicy> policy);

  /// Run one epoch; returns its report.
  EpochReport step();

  /// Run `epochs` steps, discarding intermediate reports.
  void run(Epoch epochs);

  // --- failure injection -------------------------------------------------
  void fail_servers(std::span<const ServerId> servers);
  /// Kill `n` uniformly-random live servers; returns which.
  std::vector<ServerId> fail_random_servers(std::uint32_t n);
  /// Kill every live server in a datacenter at once (the paper's
  /// "natural disasters, such as earthquake or tornado, which may destroy
  /// a whole datacenter"). Returns the victims. Partitions whose copies
  /// all lived there (availability level < 5) lose data; geographically
  /// diverse placements survive via promotion.
  std::vector<ServerId> fail_datacenter(DatacenterId dc);
  void recover_servers(std::span<const ServerId> servers);

  /// A primary handover performed by the most recent fail_servers call.
  struct Promotion {
    PartitionId partition;
    ServerId new_primary;
    /// True when no copy survived and the partition was reseeded empty.
    bool reseeded = false;
  };
  /// Promotions from the most recent fail_servers / fail_random_servers
  /// call (cleared on the next one). Consumers such as the consistency
  /// tracker use this to account for writes lost in a failover.
  [[nodiscard]] std::span<const Promotion> last_promotions() const noexcept {
    return last_promotions_;
  }

  // --- network failure injection ---------------------------------------
  /// Take an inter-datacenter link down; routes are recomputed, so the
  /// traffic-hub structure can shift (the paper's "network failure"
  /// class). Refuses to disconnect the graph. Idempotent.
  void fail_link(DatacenterId a, DatacenterId b);
  /// Bring a previously failed link back. Idempotent.
  void restore_link(DatacenterId a, DatacenterId b);
  [[nodiscard]] std::size_t failed_link_count() const noexcept {
    return disabled_links_.size();
  }
  /// True when taking (a, b) down on top of the already-failed links
  /// would disconnect the datacenter graph — fail_link refuses (asserts)
  /// in that case, so schedulers probe here first.
  [[nodiscard]] bool link_failure_would_partition(DatacenterId a,
                                                  DatacenterId b) const;

  // --- intra-epoch parallelism ------------------------------------------
  /// Fan the shardable epoch phases (flow propagation, the stats fold,
  /// the policy's per-partition scan) across `jobs` threads: 0 = one per
  /// hardware thread, 1 (the default) = serial, no pool. Every value of
  /// `jobs` produces byte-identical simulations — shards own disjoint
  /// partition ranges and their outputs are merged in shard-index order
  /// (DESIGN.md §15) — so this is purely a wall-clock knob.
  void set_jobs(unsigned jobs);
  /// Effective worker count (1 when serial).
  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }
  /// The engine's pool; null when serial.
  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_.get(); }

  // --- traffic injection -------------------------------------------------
  /// Scale every query flow by `factor` from the next step() on (chaos
  /// flash-crowd events). The multiplier is applied to the generated
  /// batch, so all downstream statistics see the surged demand; it does
  /// not perturb any RNG stream, keeping seeded runs bit-identical for
  /// factor == 1.
  void set_traffic_multiplier(double factor) noexcept {
    traffic_multiplier_ = factor;
  }
  [[nodiscard]] double traffic_multiplier() const noexcept {
    return traffic_multiplier_;
  }

  /// Freeze or thaw a server's smoothed traffic statistics (the chaos
  /// `stalestats` fault): while frozen the server keeps reporting its
  /// stale tr_bar/arrival numbers into Eqs. 9-11/17. Emits a StatsFrozen
  /// event on every actual transition; idempotent otherwise. Draws no
  /// randomness, so seeded runs stay bit-identical when unused.
  void set_stats_frozen(ServerId s, bool frozen);

  // --- observability ----------------------------------------------------
  /// The simulation's event bus. Attach sinks (obs/sinks.h) before
  /// stepping to capture a structured trace; with no sinks installed the
  /// instrumentation is a no-op (see bench_micro_events).
  [[nodiscard]] EventBus& events() noexcept { return events_; }
  [[nodiscard]] const EventBus& events() const noexcept { return events_; }

  // --- telemetry --------------------------------------------------------
  /// Attach a wall-clock profiler: step() opens one epoch window per call
  /// and times each hot-path phase into it. nullptr (the default)
  /// disables profiling at the cost of one pointer test per phase.
  /// Timing is observational only and never feeds simulation state.
  void set_profiler(PhaseProfiler* profiler) noexcept {
    profiler_ = profiler;
  }
  [[nodiscard]] PhaseProfiler* profiler() const noexcept {
    return profiler_;
  }

  /// Attach a per-flow segment log (sim/flow_log.h): propagate() clears
  /// it each epoch and records every absorption/blocking decision into
  /// it for the stream subsystem. Observational only — attaching a log
  /// never changes simulation state or RNG streams. nullptr detaches.
  void set_flow_log(FlowLog* flow_log) noexcept { flow_log_ = flow_log; }
  [[nodiscard]] FlowLog* flow_log() const noexcept { return flow_log_; }

  /// Attach a metric registry: the engine resolves its counter/gauge
  /// handles once (see DESIGN.md for the metric names) and bumps them at
  /// the end of every step; the router and policy receive the registry
  /// too. nullptr detaches. Counters are updated from the same
  /// EpochReport fields the trace events carry, so registry totals,
  /// event counts and report sums always reconcile.
  void set_telemetry(MetricRegistry* registry);
  [[nodiscard]] MetricRegistry* telemetry() const noexcept {
    return telemetry_;
  }

  // --- observers -------------------------------------------------------
  [[nodiscard]] const Topology& topology() const noexcept {
    return world_.topology;
  }
  [[nodiscard]] const World& world() const noexcept { return world_; }
  [[nodiscard]] const ShortestPaths& paths() const noexcept { return paths_; }
  [[nodiscard]] const ClusterState& cluster() const noexcept {
    return cluster_;
  }
  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const EpochTraffic& traffic() const noexcept {
    return traffic_;
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] Epoch epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::string_view policy_name() const {
    return policy_->name();
  }

  /// Copies lost with no surviving replica since construction.
  [[nodiscard]] std::uint32_t data_losses() const noexcept {
    return data_losses_;
  }
  /// EC mode: true while the partition's stripe sits below k live
  /// fragments (the loss is already counted in data_losses()). Always
  /// false in replica mode.
  [[nodiscard]] bool stripe_lost(PartitionId p) const noexcept {
    return p.value() < stripe_lost_.size() && stripe_lost_[p.value()] != 0;
  }
  /// Cumulative cost accumulators (paper Figs. 5 and 7 plot cumulative
  /// totals).
  [[nodiscard]] double cumulative_replication_cost() const noexcept {
    return cum_replication_cost_;
  }
  [[nodiscard]] double cumulative_migration_cost() const noexcept {
    return cum_migration_cost_;
  }
  [[nodiscard]] std::uint32_t cumulative_migrations() const noexcept {
    return cum_migrations_;
  }
  [[nodiscard]] std::uint32_t cumulative_replications() const noexcept {
    return cum_replications_;
  }

  /// Eq. 1 transfer cost between two datacenters.
  [[nodiscard]] double transfer_cost(DatacenterId from, DatacenterId to,
                                     Bytes bytes,
                                     BytesPerEpoch bandwidth) const;

 private:
  /// One contiguous run of same-partition flows in the epoch's batch —
  /// the unit the sharded propagate distributes, so a partition's flows
  /// are always processed by exactly one shard, in batch order.
  struct FlowRun {
    std::uint32_t partition = 0;
    std::uint32_t begin = 0;  ///< flow index into the batch
    std::uint32_t end = 0;    ///< exclusive
  };
  /// Deferred add_path_sample + add_latency pair. These feed global
  /// accumulators (routed_queries_, the latency histogram) whose FP
  /// association order must match the serial engine, so shards log the
  /// operands and the merge replays them in shard-index order.
  struct PathDelta {
    double queries = 0.0;
    double hops = 0.0;
    double ms = 0.0;
  };
  /// Deferred server_work_mut add — the server axis is shared across
  /// shards (relays of different partitions can be the same server), so
  /// these are replayed too.
  struct WorkDelta {
    std::uint32_t server = 0;
    double amount = 0.0;
  };
  /// Per-shard propagate scratch; persists across epochs so steady-state
  /// epochs reuse its capacity.
  struct PropagateShard {
    std::vector<PathDelta> samples;
    std::vector<WorkDelta> work;
    std::vector<FlowSegment> segments;  ///< only filled when a log is attached
    Router::RouteCtx route_ctx;
    /// hosts_in_dc results for the partition currently being processed,
    /// one entry per datacenter touched (placement is frozen during
    /// propagate, so caching is exact).
    struct HostsEntry {
      std::uint32_t dc = 0;
      std::vector<ServerId> hosts;
    };
    std::vector<HostsEntry> host_cache;
    std::size_t host_cache_used = 0;
    std::uint32_t cached_partition = 0;
    bool cache_valid = false;

    void begin_epoch();
    /// Cached hosts_in_dc(p, dc); the span is valid until the next call.
    std::span<const ServerId> hosts(const ClusterState& cluster, PartitionId p,
                                    DatacenterId dc);
  };

  void seed_primaries();
  void propagate(const QueryBatch& batch);
  /// Route and absorb one flow. Partition-indexed traffic state is
  /// written directly (the caller guarantees this shard owns the flow's
  /// partition); writes to global accumulators are deferred into `shard`
  /// for the shard-order replay.
  void propagate_flow(const QueryFlow& flow,
                      std::span<const std::vector<ServerId>> live_by_dc,
                      PropagateShard& shard);
  void apply_actions(const Actions& actions, EpochReport& report);
  /// `causes` is aligned with `lost`: the ServerFailed cause id of each
  /// lost copy, so promotions/reseeds chain to the failure that forced
  /// them (empty when no sink is listening).
  void handle_lost_copies(std::span<const ClusterState::LostCopy> lost,
                          std::span<const std::uint64_t> causes);
  /// Emit TrafficShift events for partitions whose q_bar moved past
  /// kTrafficShiftThreshold since the last baseline. Only called when a
  /// sink is installed.
  void emit_traffic_shifts();
  /// Bump the resolved registry handles from this epoch's report.
  void update_telemetry(const EpochReport& report);
  /// Rebuild graph / shortest paths / router from the live link set.
  void rebuild_network();
  [[nodiscard]] std::vector<Link> active_links() const;

  /// Registry handles resolved once by set_telemetry so the per-epoch
  /// update is plain pointer bumps (no name lookups in the hot path).
  struct TelemetryHandles {
    Counter* queries = nullptr;
    Counter* unserved = nullptr;
    std::array<Counter*, 3> applied{};  // indexed by ActionKind
    std::array<Counter*, kDropReasonCount> dropped{};
    Counter* replication_cost = nullptr;
    Counter* migration_cost = nullptr;
    Counter* epochs = nullptr;
    Counter* data_losses = nullptr;
    Counter* repairs_starved = nullptr;
    Gauge* replicas = nullptr;
    Gauge* live_servers = nullptr;
    Gauge* epoch = nullptr;
  };

  World world_;
  SimConfig config_;
  EventBus events_;
  PhaseProfiler* profiler_ = nullptr;
  MetricRegistry* telemetry_ = nullptr;
  FlowLog* flow_log_ = nullptr;
  TelemetryHandles tel_;
  DcGraph graph_;
  ShortestPaths paths_;
  Router router_;
  ClusterState cluster_;
  TrafficStats stats_;
  EpochTraffic traffic_;
  std::unique_ptr<WorkloadGenerator> workload_;
  std::unique_ptr<ReplicationPolicy> policy_;
  Rng rng_workload_;
  Rng rng_policy_;
  Rng rng_failures_;
  Epoch epoch_ = 0;
  double traffic_multiplier_ = 1.0;
  /// Causal bookkeeping (tracing only; never feeds simulation state).
  /// Per partition: the cause id of the latest state-changing event that
  /// touched it (lost copy, promotion, applied action, traffic shift) —
  /// the parent for the next RuleFired concerning it. 0 = no history.
  std::vector<std::uint64_t> partition_cause_;
  /// Per partition: the q_bar baseline TrafficShift detection compares
  /// against (negative = not yet initialized).
  std::vector<double> shift_baseline_;
  std::uint32_t data_losses_ = 0;
  /// EC mode: 1 when the stripe currently has fewer than k live fragments
  /// (reconstruction-infeasible; counted as a data loss until repairs
  /// bring it back above k, which emits StripeReconstructed). Unused in
  /// replica mode.
  std::vector<std::uint8_t> stripe_lost_;
  std::vector<Promotion> last_promotions_;
  /// Disabled links as normalized (min id, max id) datacenter pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> disabled_links_;
  double cum_replication_cost_ = 0.0;
  double cum_migration_cost_ = 0.0;
  std::uint32_t cum_migrations_ = 0;
  std::uint32_t cum_replications_ = 0;
  // Per-epoch outbound bandwidth budgets (reset each step).
  std::vector<Bytes> replication_bytes_;
  std::vector<Bytes> migration_bytes_;
  // --- intra-epoch parallelism (DESIGN.md §15) --------------------------
  unsigned jobs_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<PropagateShard> shards_;
  /// The epoch's run table, rebuilt by every propagate; resize keeps the
  /// capacity, so steady-state epochs allocate nothing.
  std::vector<FlowRun> runs_;
};

}  // namespace rfh
