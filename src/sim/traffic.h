// Per-epoch traffic observation matrices (the raw inputs to Eqs. 2-8,
// 20-26).
//
// The epoch's demand q_ijt is the workload's QueryBatch itself, put in
// canonical order by set_demand; nothing here is sized partitions x
// datacenters.
//
// The [partition x server] planes (node_traffic, served) are *sparse*:
// each partition keeps a short vector of cells, one per server that
// actually saw traffic for it this epoch — a handful of replicas and
// relay hops, never the full server axis. At the Table I scale the
// difference is noise; at 100k servers the dense planes would be
// gigabytes memset every epoch. The sharded propagate pass (DESIGN.md
// §15) wants exactly this layout: each shard owns a contiguous partition
// range, absorbs one partition at a time into its own dense per-server
// columns, and at the end of the partition's run writes the touched
// servers back through cells_mut, unsorted (PropagateShard::end_run).
// Readers assume no order: a partition holds a few cells (about 6 per
// run in the paper world, 22 at 10k servers), a lookup scans them, and
// the stats fold and the invariant checker treat each cell on its own.
//
// Unserved, the path-length samples and the latency histogram are
// tallied from propagate's slice log (sim/flow_log.h): one FlowSegment
// per absorption decision, replayed in shard order, which is the only
// engine path that writes them.
//
// Absent cells read as exactly 0.0 through the accessors, and every
// consumer that used to scan the dense plane (stats EWMA, oracle diff,
// metrics) adds 0.0 terms in IEEE double exactly where the dense code
// did, so the sparse layout is bit-identical to the seed — the
// differential oracle enforces this.
//
// The *_mut accessors find-or-append a cell and hand back a reference;
// a later append to the same partition invalidates it (callers do
// single assignments or immediate +=, never hold references across
// writes). They serve tests and hand-built traffic; the engine writes
// whole cell vectors through cells_mut.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/histogram.h"
#include "common/ids.h"
#include "workload/generator.h"

namespace rfh {

/// One (partition, server) traffic observation; a partition holds at most
/// one cell per server, in no particular order.
struct TrafficCell {
  std::uint32_t server = 0;
  double node = 0.0;    ///< tr_ikt: residual traffic seen at the node
  double served = 0.0;  ///< queries absorbed by the replica
};

class EpochTraffic {
 public:
  EpochTraffic(std::size_t partitions, std::size_t servers,
               std::size_t datacenters)
      : partitions_(partitions),
        servers_(servers),
        datacenters_(datacenters),
        cells_(partitions),
        demand_begin_(partitions + 1, 0),
        partition_queries_(partitions, 0.0),
        unserved_(partitions, 0.0),
        server_work_(servers, 0.0) {}

  void reset() {
    for (std::vector<TrafficCell>& cells : cells_) cells.clear();
    set_demand({});
    std::fill(unserved_.begin(), unserved_.end(), 0.0);
    std::fill(server_work_.begin(), server_work_.end(), 0.0);
    routed_queries_ = 0.0;
    path_hops_weighted_ = 0.0;
    latency_.reset();
  }

  /// Residual traffic that arrived at server s for partition p — the
  /// paper's tr_ikt: what the node sees after upstream replicas absorbed
  /// their capacity (Eqs. 2-8). Attributed to the relay server of each
  /// transit datacenter, plus to non-relay servers for what they absorb.
  [[nodiscard]] double node_traffic(PartitionId p, ServerId s) const {
    const TrafficCell* cell = find(p, s);
    return cell == nullptr ? 0.0 : cell->node;
  }
  double& node_traffic_mut(PartitionId p, ServerId s) {
    return cell_mut(p, s).node;
  }

  /// Queries actually absorbed by the replica of p on s this epoch
  /// (bounded by the server's per-replica capacity).
  [[nodiscard]] double served(PartitionId p, ServerId s) const {
    const TrafficCell* cell = find(p, s);
    return cell == nullptr ? 0.0 : cell->served;
  }
  double& served_mut(PartitionId p, ServerId s) {
    return cell_mut(p, s).served;
  }

  /// The partition's touched cells, in the order they were written (see
  /// above). Iterating these and treating every other server as 0.0 is
  /// exactly the dense scan, up to order.
  [[nodiscard]] std::span<const TrafficCell> cells(PartitionId p) const {
    RFH_ASSERT(p.value() < partitions_);
    return cells_[p.value()];
  }
  /// Writable cell vector for shard-owned partitions. Propagate replaces
  /// it at the end of each partition run with the run's touched column
  /// slots; any order, but at most one cell per server.
  [[nodiscard]] std::vector<TrafficCell>& cells_mut(PartitionId p) {
    RFH_ASSERT(p.value() < partitions_);
    return cells_[p.value()];
  }

  /// Take the epoch's demand q_ijt and put it in canonical order:
  /// strictly ascending (partition, requester), equal keys merged by
  /// summing them in batch order. Generator output is already canonical
  /// (one scan); anything else is stable-sorted first. Tallies
  /// total_queries and partition_queries from the canonical flows.
  void set_demand(QueryBatch batch) {
    const auto before = [](const QueryFlow& a, const QueryFlow& b) {
      return std::pair(a.partition.value(), a.requester.value()) <
             std::pair(b.partition.value(), b.requester.value());
    };
    if (std::adjacent_find(batch.begin(), batch.end(),
                           std::not_fn(before)) != batch.end()) {
      std::stable_sort(batch.begin(), batch.end(), before);
      std::size_t out = 0;
      for (const QueryFlow& flow : batch) {
        if (out > 0 && !before(batch[out - 1], flow)) {
          batch[out - 1].queries += flow.queries;
        } else {
          batch[out++] = flow;
        }
      }
      batch.resize(out);
    }
    demand_ = std::move(batch);
    total_queries_ = 0.0;
    std::fill(partition_queries_.begin(), partition_queries_.end(), 0.0);
    std::fill(demand_begin_.begin(), demand_begin_.end(), 0);
    for (const QueryFlow& flow : demand_) {
      RFH_ASSERT(flow.partition.value() < partitions_ &&
                 flow.requester.value() < datacenters_);
      total_queries_ += flow.queries;
      partition_queries_[flow.partition.value()] += flow.queries;
      ++demand_begin_[flow.partition.value() + 1];
    }
    std::partial_sum(demand_begin_.begin(), demand_begin_.end(),
                     demand_begin_.begin());
  }

  /// The epoch's canonical demand, partition-major.
  [[nodiscard]] std::span<const QueryFlow> demand() const { return demand_; }
  /// q_ijt of partition p: its flows, ascending requester.
  [[nodiscard]] std::span<const QueryFlow> demand(PartitionId p) const {
    RFH_ASSERT(p.value() < partitions_);
    return std::span<const QueryFlow>(demand_).subspan(
        demand_begin_[p.value()],
        demand_begin_[p.value() + 1] - demand_begin_[p.value()]);
  }

  /// Total queries for p this epoch (sum over requesters).
  [[nodiscard]] double partition_queries(PartitionId p) const {
    return partition_queries_[p.value()];
  }

  /// Demand for p not served this epoch: unavailable flows plus the
  /// residuals that exceeded even the primary's capacity (blocked).
  [[nodiscard]] double unserved(PartitionId p) const {
    return unserved_[p.value()];
  }
  double& unserved_mut(PartitionId p) { return unserved_[p.value()]; }

  /// Queries a server touched this epoch (forwarding + absorption) —
  /// the per-node workload l_i of Eqs. 24-26 and the Erlang-B arrival
  /// rate input.
  [[nodiscard]] double server_work(ServerId s) const {
    return server_work_[s.value()];
  }
  double& server_work_mut(ServerId s) { return server_work_[s.value()]; }

  [[nodiscard]] double total_queries() const noexcept { return total_queries_; }

  /// Mean lookup path length (hops), query-weighted.
  [[nodiscard]] double mean_path_length() const noexcept {
    return routed_queries_ > 0.0 ? path_hops_weighted_ / routed_queries_ : 0.0;
  }
  void add_path_sample(double queries, double hops) noexcept {
    routed_queries_ += queries;
    path_hops_weighted_ += queries * hops;
  }

  /// Per-query response-latency distribution for this epoch (ms).
  [[nodiscard]] const Histogram& latency() const noexcept { return latency_; }
  void add_latency(double queries, double ms) noexcept {
    latency_.add(queries, ms);
  }

  [[nodiscard]] std::size_t partitions() const noexcept { return partitions_; }
  [[nodiscard]] std::size_t servers() const noexcept { return servers_; }
  [[nodiscard]] std::size_t datacenters() const noexcept {
    return datacenters_;
  }

 private:
  [[nodiscard]] const TrafficCell* find(PartitionId p, ServerId s) const {
    RFH_ASSERT(p.value() < partitions_ && s.value() < servers_);
    for (const TrafficCell& cell : cells_[p.value()]) {
      if (cell.server == s.value()) return &cell;
    }
    return nullptr;
  }

  [[nodiscard]] TrafficCell& cell_mut(PartitionId p, ServerId s) {
    RFH_ASSERT(p.value() < partitions_ && s.value() < servers_);
    std::vector<TrafficCell>& cells = cells_[p.value()];
    for (TrafficCell& cell : cells) {
      if (cell.server == s.value()) return cell;
    }
    return cells.emplace_back(TrafficCell{s.value(), 0.0, 0.0});
  }

  std::size_t partitions_;
  std::size_t servers_;
  std::size_t datacenters_;
  std::vector<std::vector<TrafficCell>> cells_;  // per p, any order
  QueryBatch demand_;                     // canonical, partition-major
  std::vector<std::size_t> demand_begin_;  // [p]: p's first flow; [P]: end
  std::vector<double> partition_queries_;
  std::vector<double> unserved_;
  std::vector<double> server_work_;
  double total_queries_ = 0.0;
  double routed_queries_ = 0.0;
  double path_hops_weighted_ = 0.0;
  Histogram latency_;
};

}  // namespace rfh
