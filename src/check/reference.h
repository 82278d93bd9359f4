// The differential oracle: a deliberately naive, cache-free
// re-implementation of one RFH epoch.
//
// Where the optimized engine (src/sim/engine.cpp + its collaborators)
// keeps a sorted token vector with successor caches, a relay table and
// incrementally maintained statistics, the reference engine recomputes
// everything the slow way every epoch:
//
//   * the consistent-hashing ring is a plain std::map<token, server>
//     walked clockwise with linear dedup — no successor lists, no caches;
//   * every query flow's route is recomputed from the shortest-path table
//     on the spot — no per-(partition, DC) relay table;
//   * the EWMA statistics (Eqs. 9-11) live in plain vectors updated by a
//     direct transcription of the update equations;
//   * the decision tree (Eqs. 12-17) is evaluated inline against those
//     vectors, with its own hysteresis state;
//   * action application re-checks Eq. 19 / bandwidth / liveness directly.
//
// Pure *stateless* leaves are shared with the engine on purpose —
// hash64/hash_combine, rendezvous_pick, erlang_b, min_replicas, Dijkstra
// (ShortestPaths) and the workload generators. Re-implementing those
// would only diverge on tie-breaks that are arbitrary-but-fixed (e.g.
// Dijkstra pop order), producing false positives that say nothing about
// the caching layers the oracle exists to check. Everything *stateful*
// or cached is independent.
//
// The DifferentialHarness (diff.h) cross-checks engine vs. reference
// after every epoch: placements, applied decisions (with their
// DecisionRule), traffic totals, smoothed statistics and replica counts
// must match bit-for-bit.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "harness/scenario.h"
#include "net/graph.h"
#include "net/shortest_paths.h"
#include "obs/events.h"
#include "routing/router.h"
#include "sim/cluster.h"
#include "sim/config.h"
#include "topology/world.h"
#include "workload/generator.h"

namespace rfh {

/// One action the reference engine validated and applied, in apply order
/// (replications, then migrations, then suicides — the engine's event
/// emission order).
struct RefAppliedAction {
  ActionKind kind = ActionKind::kReplicate;
  PartitionId partition;
  /// kReplicate: the sourcing primary; kMigrate: the vacated server;
  /// kSuicide: the removed copy's host.
  ServerId a;
  /// kReplicate / kMigrate: the new copy's host; invalid for kSuicide.
  ServerId b;
  DecisionRule rule = DecisionRule::kNone;

  friend bool operator==(const RefAppliedAction&,
                         const RefAppliedAction&) = default;
};

/// The reference engine's per-epoch observables: the engine's report
/// plus the applied-action record the harness diffs against trace events.
struct RefEpochReport : EpochReport {
  std::vector<RefAppliedAction> applied;
};

class ReferenceEngine {
 public:
  /// Builds its own World copy from the scenario through make_world (same
  /// shape and seed, so the heterogeneous capacities are identical) and
  /// forks the same RNG stream tags as the engine. Always evaluates the
  /// default-option RFH policy — the harness runs the engine with
  /// PolicyKind::kRfh defaults.
  explicit ReferenceEngine(const Scenario& scenario);

  RefEpochReport step();

  // --- failure mirroring (driven from the engine's event stream) --------
  void fail_servers(std::span<const ServerId> servers);
  void recover_servers(std::span<const ServerId> servers);
  void fail_link(DatacenterId a, DatacenterId b);
  void restore_link(DatacenterId a, DatacenterId b);
  void set_traffic_multiplier(double factor) noexcept {
    traffic_multiplier_ = factor;
  }
  /// Mirror of Simulation::set_stats_frozen (the stalestats fault):
  /// while frozen, update_stats leaves the server's tr_bar row and
  /// arrival rate untouched.
  void set_stats_frozen(ServerId s, bool frozen);

  // --- observers for the differential comparison ------------------------
  [[nodiscard]] Epoch epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint32_t data_losses() const noexcept {
    return data_losses_;
  }
  [[nodiscard]] std::uint32_t total_replicas() const noexcept {
    return total_replicas_;
  }
  [[nodiscard]] std::uint32_t live_server_count() const noexcept {
    return live_count_;
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return world_.topology.server_count();
  }
  [[nodiscard]] std::uint32_t partitions() const noexcept {
    return config_.partitions;
  }
  [[nodiscard]] ServerId primary_of(PartitionId p) const;
  /// The partition's copies in list (insertion) order.
  [[nodiscard]] std::span<const Replica> replicas_of(PartitionId p) const;
  [[nodiscard]] double avg_query(PartitionId p) const;
  [[nodiscard]] double node_traffic(PartitionId p, ServerId s) const;
  [[nodiscard]] bool alive(ServerId s) const;

 private:
  struct RefRoute {
    std::vector<RouteStage> stages;
    std::uint32_t total_hops = 0;
    double total_latency_ms = 0.0;
  };
  struct LostCopy {
    PartitionId partition;
    bool was_primary = false;
  };
  struct ProposedReplicate {
    PartitionId partition;
    ServerId target;
    DecisionRule rule = DecisionRule::kNone;
  };
  struct ProposedMigrate {
    PartitionId partition;
    ServerId from;
    ServerId to;
    DecisionRule rule = DecisionRule::kNone;
  };
  struct ProposedSuicide {
    PartitionId partition;
    ServerId server;
    DecisionRule rule = DecisionRule::kNone;
  };

  // --- naive std::map ring ---------------------------------------------
  void ring_add(ServerId s);
  void ring_remove(ServerId s);
  [[nodiscard]] std::vector<ServerId> preference_list(std::uint64_t key,
                                                      std::size_t n) const;

  // --- cluster bookkeeping ---------------------------------------------
  void add_replica(PartitionId p, ServerId s, bool primary = false);
  void remove_replica(PartitionId p, ServerId s);
  void set_primary(PartitionId p, ServerId s);
  [[nodiscard]] bool has_replica(PartitionId p, ServerId s) const;
  [[nodiscard]] bool can_accept(ServerId s, PartitionId p) const;
  [[nodiscard]] std::vector<ServerId> hosts_in_dc(PartitionId p,
                                                  DatacenterId dc) const;
  void rebuild_live_by_dc();
  void seed_primaries();
  void handle_lost_copies(std::span<const LostCopy> lost);

  // --- per-epoch phases -------------------------------------------------
  void compute_route(PartitionId partition, DatacenterId requester,
                     ServerId holder, RefRoute& route) const;
  void propagate(const QueryBatch& batch);
  void update_stats();
  void clear_server_stats(ServerId s);
  void decide(std::vector<ProposedReplicate>& replications,
              std::vector<ProposedMigrate>& migrations,
              std::vector<ProposedSuicide>& suicides);
  void apply(const std::vector<ProposedReplicate>& replications,
             const std::vector<ProposedMigrate>& migrations,
             const std::vector<ProposedSuicide>& suicides,
             RefEpochReport& report);

  // --- decision-tree helpers (mirroring core/rfh_policy.cpp semantics
  // against the naive state) --------------------------------------------
  struct HubCandidate {
    ServerId server;
    double traffic = 0.0;
  };
  [[nodiscard]] std::vector<HubCandidate> hub_candidates(
      PartitionId p, double gamma_threshold, bool require_gamma) const;
  [[nodiscard]] ServerId select_in_dc(DatacenterId dc, PartitionId p) const;
  [[nodiscard]] ServerId pick_target_hub(
      PartitionId p, const std::vector<HubCandidate>& hubs) const;
  [[nodiscard]] ServerId pick_target_near_owner(PartitionId p) const;
  [[nodiscard]] bool holder_overloaded(PartitionId p, ServerId primary) const;

  [[nodiscard]] double transfer_cost(DatacenterId from, DatacenterId to,
                                     Bytes bytes,
                                     BytesPerEpoch bandwidth) const;
  void rebuild_network();
  [[nodiscard]] std::vector<Link> active_links() const;
  [[nodiscard]] std::size_t traffic_index(PartitionId p, ServerId s) const {
    return p.value() * world_.topology.server_count() + s.value();
  }

  World world_;
  SimConfig config_;
  std::unique_ptr<WorkloadGenerator> workload_;
  Rng rng_workload_;

  // Ring: token -> owner plus each server's token list (insertion order).
  std::map<std::uint64_t, ServerId> ring_;
  std::map<ServerId, std::vector<std::uint64_t>> ring_tokens_;

  // Cluster state.
  std::vector<std::vector<Replica>> replicas_;  // by partition
  std::vector<Bytes> storage_used_;
  std::vector<std::uint32_t> copies_on_;
  std::vector<char> alive_;
  std::vector<std::vector<ServerId>> live_by_dc_;
  std::uint32_t live_count_ = 0;
  std::uint32_t total_replicas_ = 0;

  // Network (rebuilt from scratch on every link change).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> disabled_links_;
  std::unique_ptr<DcGraph> graph_;
  std::unique_ptr<ShortestPaths> paths_;

  // Per-epoch raw traffic (Eqs. 2-8 inputs), reset each step.
  std::vector<double> e_node_traffic_;
  std::vector<double> e_served_;
  std::vector<double> e_partition_queries_;
  std::vector<double> e_unserved_;
  std::vector<double> e_server_work_;
  double e_total_queries_ = 0.0;
  double e_routed_queries_ = 0.0;
  double e_path_hops_weighted_ = 0.0;

  // Smoothed statistics (Eqs. 9-11), direct transcription.
  std::vector<double> avg_query_;
  std::vector<double> node_traffic_;
  std::vector<double> server_arrival_;
  std::vector<char> stats_frozen_;
  bool stats_initialized_ = false;

  // Decision-tree hysteresis (RfhPolicy default options).
  std::vector<std::uint32_t> overload_streak_;
  std::unordered_map<std::uint64_t, std::uint32_t> cold_streak_;

  // Per-epoch bandwidth budgets.
  std::vector<Bytes> replication_bytes_;
  std::vector<Bytes> migration_bytes_;

  Epoch epoch_ = 0;
  double traffic_multiplier_ = 1.0;
  std::uint32_t data_losses_ = 0;
  /// EC mode: mirrors the engine's stripe-loss flags (fewer than k live
  /// fragments, already counted as a data loss). Unused in replica mode.
  std::vector<std::uint8_t> stripe_lost_;
};

}  // namespace rfh
