// Query routing: requester datacenter -> holder server.
//
// A query for partition B_i issued near datacenter j travels the fixed
// shortest path of datacenters towards the primary holder. Inside each
// datacenter the query is handled by a deterministic *relay* server
// (rendezvous-hashed per (partition, datacenter)); any replica hosted in a
// transit datacenter can absorb the query there. Hop counting follows the
// paper's lookup-path-length metric: one hop to enter the requester
// datacenter's relay, one hop per further datacenter, and one final hop
// from the holder datacenter's relay down to the owning server.
//
// Relay table: a route is assembled from the requester -> holder-DC path
// span (ShortestPaths' arena, read live, so link changes need no hook)
// plus one relay per transit datacenter. walk() is the only routing call:
// it assembles the route stage by stage and stops when the caller does
// (propagate stops once the demand is absorbed). relay_for is a pure
// argmax over the DC's live servers, so the Router caches it per
// (partition, DC) in one flat table, sized for every partition at
// construction and filled on first lookup. The table stays exact — equal
// to a fresh relay_for over live_by_dc[dc], bit for bit — as long as the
// owner reports every liveness change:
//  * servers_down(victims) after a kill clears exactly the cells whose
//    relay died;
//  * servers_up(revived) after a revive lets each revived server take a
//    filled cell of its DC when it outweighs the current relay (the
//    argmax does not depend on candidate order, so this is the fresh
//    pick). Empty cells stay empty and are filled on the next lookup.
// The table is column-major (one contiguous column of partitions per
// datacenter), so both hooks read only the changed servers' datacenter
// columns, front to back: a wave costs O(partitions · changed DCs), not
// O(partitions · DCs). The constructor hashes every partition key, server
// id and datacenter id once; table fills and servers_up read those
// columns, so a candidate's weight is one hash_combine over its stored
// hash64 — the same weight relay_for computes from scratch. relay_for
// stays the reference pick (ReferenceEngine, the relay-table tests).
// In the engine, Simulation::fail_servers and recover_servers call the
// hooks; placement changes need nothing, since the holder stage is the
// holder itself and every other cell depends only on liveness.
//
// Concurrency: a partition's cells are only read and written by the code
// routing that partition. The sharded propagate pass gives each shard a
// contiguous partition range, so shards fill the cells they own with no
// synchronisation (DESIGN.md §11/§15); the hooks run serially between
// epochs.
//
// Counters: walk() accumulates them per shard in a RouteCtx; the engine
// flushes contexts in shard-index order after the join, which reproduces
// the serial totals exactly (integer counts in doubles are
// order-invariant below 2^53).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/ids.h"
#include "net/shortest_paths.h"
#include "topology/topology.h"

namespace rfh {

class Counter;
class MetricRegistry;

/// One datacenter visited by a query, in order.
struct RouteStage {
  DatacenterId dc;
  /// The forwarding server inside `dc` that carries this partition's
  /// pass-through traffic (a traffic-hub candidate).
  ServerId relay;
  /// Network hops from the client when the query reaches this stage.
  std::uint32_t hops_at_entry = 0;
  /// One-way network latency from the client to this stage: per-hop
  /// switching cost plus fibre propagation over the kilometres travelled.
  double latency_ms = 0.0;
};

/// Where a route ends: the descent into the holder server.
struct RouteEnd {
  /// Hops if the query must go all the way to the holder server.
  std::uint32_t total_hops = 0;
  /// Latency if the query must go all the way to the holder server.
  double total_latency_ms = 0.0;
};

/// Latency model constants (see DESIGN.md): 2 ms switching cost per hop,
/// ~200 km of fibre per millisecond of propagation.
inline constexpr double kHopLatencyMs = 2.0;
inline constexpr double kFibreKmPerMs = 200.0;

class Router {
 public:
  /// A relay table for partitions [0, partitions), every cell empty.
  Router(const Topology& topology, const ShortestPaths& paths,
         std::size_t partitions);

  /// Per-shard telemetry tallies. Flush contexts in shard-index order via
  /// flush_counts().
  struct RouteCtx {
    std::uint64_t routes = 0;
    std::uint64_t stages = 0;
    std::uint64_t dead_skips = 0;
  };

  /// Walk the route for queries from `requester` to the primary copy on
  /// `holder`, one stage at a time: `visit(const RouteStage&)` returns
  /// false to stop. `live_by_dc[dc]` lists the currently-alive servers of
  /// each datacenter (relays are only chosen among live servers; a
  /// datacenter with no live servers is skipped as a stage). Stages after
  /// the stop are not assembled (no relay lookup, no latency) but still
  /// counted in `ctx`, so the tallies describe the whole route. Callers
  /// running shards concurrently must never walk the same partition from
  /// two shards.
  template <typename Visit>
  RouteEnd walk(PartitionId partition, DatacenterId requester,
                ServerId holder,
                std::span<const std::vector<ServerId>> live_by_dc,
                RouteCtx& ctx, Visit&& visit) const;

  /// Fold a context's tallies into the telemetry counters, then zero
  /// them. Call once per shard, in shard-index order.
  void flush_counts(RouteCtx& ctx) const;

  /// Liveness hooks (see the relay-table contract above): call after the
  /// servers left, or rejoined, their datacenters' live lists.
  void servers_down(std::span<const ServerId> servers);
  void servers_up(std::span<const ServerId> servers);

  /// The table's cell for (partition, dc); invalid when not cached (cold
  /// or cleared by servers_down).
  [[nodiscard]] ServerId cached_relay(PartitionId partition,
                                      DatacenterId dc) const;

  /// Relay server for (partition, dc) among the given live servers.
  [[nodiscard]] static ServerId relay_for(
      PartitionId partition, DatacenterId dc,
      std::span<const ServerId> live_servers);

  /// Export route/stage/dead-skip counters into `registry`
  /// (rfh_router_*). nullptr detaches. Counting is observational only;
  /// routing stays deterministic either way.
  void set_telemetry(MetricRegistry* registry);

 private:
  /// One-way latency to the stage at `hops` hops: the per-hop switching
  /// cost plus fibre over the shortest path, whose prefixes are shortest
  /// paths, so the fibre distance to `dc` is the all-pairs distance.
  [[nodiscard]] double latency_to(DatacenterId requester, DatacenterId dc,
                                  std::size_t hops) const {
    return kHopLatencyMs * static_cast<double>(hops) +
           paths_->distance_km(requester, dc) / kFibreKmPerMs;
  }
  /// relay_for from the stored hash columns.
  [[nodiscard]] ServerId fill_relay(PartitionId partition, DatacenterId dc,
                                    std::span<const ServerId> live_servers)
      const;
  /// The table cell for (partition, dc).
  [[nodiscard]] ServerId& relay_cell(PartitionId partition,
                                     DatacenterId dc) const {
    return relays_[std::size_t{dc.value()} * partition_keys_.size() +
                    partition.value()];
  }

  const Topology* topology_;
  const ShortestPaths* paths_;
  /// HashRing::partition_key of each partition.
  std::vector<std::uint64_t> partition_keys_;
  /// hash64 of every server id and every datacenter id.
  std::vector<std::uint64_t> server_hashes_;
  std::vector<std::uint64_t> dc_hashes_;
  /// relays_[dc * partitions + partition]; invalid = not yet picked.
  mutable std::vector<ServerId> relays_;
  // Registry-owned counters (not ours); null when telemetry is detached.
  Counter* routes_ = nullptr;
  Counter* stages_ = nullptr;
  Counter* dead_skips_ = nullptr;
};

template <typename Visit>
RouteEnd Router::walk(PartitionId partition, DatacenterId requester,
                      ServerId holder,
                      std::span<const std::vector<ServerId>> live_by_dc,
                      RouteCtx& ctx, Visit&& visit) const {
  RFH_ASSERT(holder.valid());
  RFH_ASSERT(partition.value() < partition_keys_.size());
  RFH_ASSERT(live_by_dc.size() == paths_->size());
  const DatacenterId holder_dc = topology_->server(holder).datacenter;
  const std::span<const DatacenterId> path =
      paths_->path_span(requester, holder_dc);
  // Hops: one to enter the requester DC's relay, then one per datacenter,
  // dead or alive; a dead datacenter's backbone router still forwards, but
  // no server there can absorb or be a hub, so it is not a stage.
  std::size_t i = 0;
  while (i < path.size()) {
    const DatacenterId dc = path[i++];
    const std::vector<ServerId>& live = live_by_dc[dc.value()];
    if (live.empty()) {
      ++ctx.dead_skips;
      continue;
    }
    ++ctx.stages;
    ServerId relay = holder;
    if (dc != holder_dc) {
      ServerId& cell = relay_cell(partition, dc);
      if (!cell.valid()) cell = fill_relay(partition, dc, live);
      relay = cell;
    }
    const RouteStage stage{dc, relay, static_cast<std::uint32_t>(i),
                           latency_to(requester, dc, i)};
    if (!visit(stage)) break;
  }
  for (; i < path.size(); ++i) {
    if (live_by_dc[path[i].value()].empty()) {
      ++ctx.dead_skips;
    } else {
      ++ctx.stages;
    }
  }
  ++ctx.routes;
  // Final descent from the holder datacenter's relay to the owning server.
  return RouteEnd{static_cast<std::uint32_t>(path.size() + 1),
                  latency_to(requester, holder_dc, path.size()) +
                      kHopLatencyMs};
}

}  // namespace rfh
