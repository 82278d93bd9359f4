// The replication-policy interface all four algorithms implement.
//
// A policy is a pure decision function: each epoch it reads the smoothed
// statistics and cluster state and returns the replicate / migrate /
// suicide actions it wants. The engine owns all mutation. This mirrors
// the paper's "decision agent" formulation — every virtual node decides
// for itself; the PolicyContext is exactly the information a decentralized
// agent could gather (its own traffic, the piggybacked replication
// requests, the blocking probabilities carried in those requests).
#pragma once

#include <algorithm>
#include <string_view>

#include "common/rng.h"
#include "common/units.h"
#include "net/shortest_paths.h"
#include "sim/actions.h"
#include "sim/cluster.h"
#include "sim/config.h"
#include "sim/stats.h"
#include "topology/topology.h"

namespace rfh {

class ThreadPool;

struct PolicyContext {
  const Topology& topology;
  const ShortestPaths& paths;
  const ClusterState& cluster;
  const TrafficStats& stats;
  const SimConfig& config;
  Epoch epoch = 0;
  Rng& rng;
  /// Pool for sharding the per-partition decision scan; null means
  /// serial. A policy that uses it must keep its returned actions
  /// byte-identical to the serial scan for every worker count
  /// (DESIGN.md §15) — RNG-consuming paths must stay serial.
  ThreadPool* pool = nullptr;
};

class MetricRegistry;

class ReplicationPolicy {
 public:
  virtual ~ReplicationPolicy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual Actions decide(const PolicyContext& ctx) = 0;
  /// Offered a registry by Simulation::set_telemetry; policies that export
  /// metrics resolve their handles here. nullptr detaches. Optional.
  virtual void set_telemetry(MetricRegistry* /*registry*/) {}
  /// Whether decide() reads TrafficStats::requester_queries. The engine
  /// asks once, at construction, and keeps the requester rows only then.
  [[nodiscard]] virtual bool reads_requester_stats() const { return false; }
};

/// Eq. 12 with two practical adjustments:
///  * a physical floor — the holder must also exceed what its copy can
///    actually serve per epoch, so cold partitions (whose relative
///    threshold beta*q_bar is tiny) do not replicate forever on sampling
///    noise;
///  * a demand clamp — Eq. 12 presumes enough requesters that
///    beta*q_bar = beta*total/N stays below the total demand; with few
///    requester datacenters (N <= beta) the printed threshold would be
///    unreachable by construction, so it is capped at 90% of the
///    partition's demand.
/// All four policies share this trigger so they face identical pressure.
///
/// When `explain` is non-null the observed traffic, effective threshold
/// and q_bar are recorded there (regardless of the verdict), so a policy
/// can attach the numbers behind Eq. 12 to the actions it emits.
inline bool holder_overloaded(const PolicyContext& ctx, PartitionId p,
                              ServerId primary,
                              DecisionExplanation* explain = nullptr) {
  const double q_bar = ctx.stats.avg_query(p);
  const double total =
      q_bar * static_cast<double>(ctx.topology.datacenter_count());
  const double threshold = std::min(ctx.config.beta * q_bar, 0.9 * total);
  const double tr = ctx.stats.node_traffic(p, primary);
  if (explain != nullptr) {
    explain->observed = tr;
    explain->threshold = threshold;
    explain->q_bar = q_bar;
  }
  if (q_bar <= 0.0) return false;
  const double capacity =
      ctx.topology.server(primary).spec.per_replica_capacity;
  return tr >= threshold && tr > capacity;
}

}  // namespace rfh
