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
// Failure injection (fail_servers / recover_servers) may be called
// between steps; lost primaries are promoted from surviving copies
// (highest smoothed traffic first), or re-seeded at the ring successor
// when no copy survives (counted as a data loss). The engine draws no
// victims: the ChaosController (fault/chaos.h) picks them, a random
// crash wave and a whole-datacenter outage alike.
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
/// epoch are tallied into EpochReport::repairs_starved and
/// rfh_repairs_starved_total — the silent repair-starvation signal the
/// default vnode cap used to hide at 10k+ servers. The first such epoch
/// of a Simulation also logs one warning.
inline constexpr std::uint32_t kStarvedRepairWarnThreshold = 0;

class Simulation {
 public:
  Simulation(World world, const SimConfig& config,
             std::unique_ptr<WorkloadGenerator> workload,
             std::unique_ptr<ReplicationPolicy> policy);

  /// Run one epoch; returns its report, which is also the epoch's last
  /// event (EpochCompleted).
  EpochReport step();

  /// Run `epochs` steps, discarding intermediate reports.
  void run(Epoch epochs);

  // --- failure injection -------------------------------------------------
  void fail_servers(std::span<const ServerId> servers);
  void recover_servers(std::span<const ServerId> servers);

  /// A primary handover performed by the most recent fail_servers call.
  struct Promotion {
    PartitionId partition;
    ServerId new_primary;
    /// True when no copy survived and the partition was reseeded empty.
    bool reseeded = false;
  };
  /// Promotions from the most recent fail_servers call (cleared on the
  /// next one). Consumers such as the consistency
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
  /// it each epoch and copies every absorption/blocking slice into it
  /// for the stream subsystem. Observational only — attaching a log
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
  /// Deferred server_work_mut add — the server axis is shared across
  /// shards (relays of different partitions can be the same server), so
  /// these are replayed too.
  struct WorkDelta {
    std::uint32_t server = 0;
    double amount = 0.0;
  };
  /// A replica plan entry; `rank` is 2·datacenter, plus 1 for the
  /// primary, so sorting by (rank, server) groups the copies by datacenter
  /// in hosts_in_dc order.
  struct PlanCopy {
    std::uint32_t rank = 0;
    ServerId server;
  };
  /// Per-shard propagate scratch; persists across epochs so steady-state
  /// epochs reuse its capacity.
  struct PropagateShard {
    /// One slice per absorption decision (unavailable, absorbed, blocked
    /// residual), in decision order. The shard-order replay derives
    /// unserved, the path and latency samples and the flow log from it.
    std::vector<FlowSegment> slices;
    std::vector<WorkDelta> work;
    Router::RouteCtx route_ctx;
    /// The run's replica_plan; placement is frozen during propagate.
    std::span<const PlanCopy> plan;
    /// Dense traffic columns of the run's partition, indexed by server id
    /// and all-zero between runs; `touched` lists the servers written, in
    /// first-touch order.
    struct DenseCell {
      double node = 0.0;
      double served = 0.0;
      bool touched = false;
    };
    std::vector<DenseCell> columns;
    std::vector<std::uint32_t> touched;

    /// Clear the epoch's deferred writes; size the columns to `servers`.
    void begin_epoch(std::size_t servers);
    /// The plan's copies in `dc` (hosts_in_dc(p, dc) order); empty if none.
    [[nodiscard]] std::span<const PlanCopy> hosts(DatacenterId dc) const;
    /// s's column slot, listed as touched on first use.
    DenseCell& cell(ServerId s);
    /// Write the touched slots back as p's cells in first-touch order —
    /// the same order for every jobs value — and zero them.
    void end_run(EpochTraffic& traffic, PartitionId p);
  };

  void seed_primaries();
  /// Where a partition's primary goes: the first server in ring
  /// preference order that can accept it, else the ring owner ("a
  /// physical node hosts an amount of virtual nodes within its capacity
  /// limit"). Invalid only for an empty ring.
  [[nodiscard]] ServerId ring_home(PartitionId partition) const;
  /// Hand `batch` to EpochTraffic::set_demand, then route and absorb
  /// its canonical flows, one partition run per shard task.
  void propagate(QueryBatch batch);
  /// p's replica plan, kept in p's row of plans_ and rebuilt only when
  /// p's placement version has moved since the row was built. Only the
  /// shard that owns p's run calls it, so the row is that shard's alone.
  [[nodiscard]] std::span<const PlanCopy> replica_plan(PartitionId p);
  /// Route and absorb one flow of the shard's current run. Node and
  /// served traffic go to the shard's columns; every absorption decision
  /// becomes one slice and every server-work add one WorkDelta, both
  /// replayed in shard order by propagate.
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
  /// Set once the starved-repair warning has been logged.
  bool warned_starved_repairs_ = false;
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
  /// The partitions with demand this epoch, ascending: the unit the
  /// sharded propagate distributes, so a partition's flows are processed
  /// by exactly one shard. Rebuilt by every propagate; clear keeps the
  /// capacity, so steady-state epochs allocate nothing.
  std::vector<PartitionId> runs_;
  /// Replica plans, one row of replica_stride() slots per partition (all
  /// stale again when the stride grows), and the placement version each
  /// row was built from.
  static constexpr std::uint32_t kNoPlan = ~std::uint32_t{0};
  std::vector<PlanCopy> plans_;
  std::vector<std::uint32_t> plan_versions_;
};

}  // namespace rfh
