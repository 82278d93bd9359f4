// Exponentially smoothed traffic statistics (paper Eqs. 9-11).
//
// All policies observe the cluster through these smoothed series:
//   q_bar_i   — per-partition system average query (Eq. 9 averaged over
//               requesters, smoothed by Eq. 10);
//   tr_bar_ik — per-(partition, server) traffic load (Eq. 11);
//   per-(partition, requester) query volume (only for a policy that
//               reads_requester_stats());
//   per-server arrival rate (Erlang-B's lambda, Eq. 18).
//
// The tr_bar plane is sparse: each partition holds cells (sorted by
// server id) only for servers whose EWMA is nonzero. update() folds the
// epoch's traffic cells (in any order: a per-shard slot table indexed by
// server hands each resident cell its observation, and only the servers
// new to the partition are sorted) into them in place — a*prev + b*obs,
// with obs = 0.0 for an untouched cell and prev = 0.0 for a new one —
// and prunes exact zeros. Servers on neither side would stay +0.0, so
// this is bit-identical to the dense scan the seed performed (the
// differential oracle checks it), and so is Eq. 17's numerator, summed
// on read in ascending server order. clear_servers() only marks its
// victims: readers skip them, and the next fold reads their cells as
// absent and drops them.
//
// The requester rows are dense [p][dc]: update() merges each with
// EpochTraffic::demand(p); a DC with no flow takes a*v + b*0.0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/ids.h"
#include "sim/traffic.h"
#include "workload/generator.h"

namespace rfh {

class ThreadPool;

/// One (partition, server) smoothed-traffic cell (tr_bar_ik).
struct StatCell {
  std::uint32_t server = 0;
  double ewma = 0.0;
};

class TrafficStats {
 public:
  /// `alpha_weights_history`: Eq. 10's printed orientation (see
  /// SimConfig::alpha_weights_history). Without `requester_rows`,
  /// requester_queries() asserts.
  TrafficStats(std::size_t partitions, std::size_t servers,
               std::size_t datacenters, double alpha,
               bool alpha_weights_history = true,
               bool requester_rows = false);

  /// Fold in one epoch of raw observations. Every write is indexed by
  /// partition or by server, so with a pool the fold shards those axes
  /// across workers; each output value is a pure function of its own
  /// inputs, making the result bit-identical for every worker count.
  void update(const EpochTraffic& traffic, ThreadPool* pool = nullptr);

  /// Freeze (or thaw) a server's smoothed series: while frozen, update()
  /// leaves the server's tr_bar cells and arrival rate untouched, so the
  /// server keeps feeding its stale numbers into Eq. 17 — the Byzantine
  /// stale-stats fault (fault/plan.h `stalestats`). Partition-axis
  /// aggregates (q_bar, requester queries) stay live; only the
  /// server-indexed series freeze. clear_servers still wipes a frozen
  /// server, so a frozen victim that later dies is forgotten as usual.
  void set_frozen(ServerId s, bool frozen);
  [[nodiscard]] bool frozen(ServerId s) const;

  /// Forget everything about failed servers, in O(victims). Otherwise the
  /// decaying tr_bar of dead servers keeps inflating Eq. 17's numerator
  /// while mean_node_traffic() divides by the *live* server count,
  /// skewing the migration-benefit test (Eq. 16) for many epochs.
  void clear_servers(std::span<const ServerId> servers);

  /// q_bar_i: smoothed system average query for partition p — the paper
  /// divides the partition's total demand by the number of requesters N.
  [[nodiscard]] double avg_query(PartitionId p) const;

  /// tr_bar_ik: smoothed traffic load of server s for partition p.
  [[nodiscard]] double node_traffic(PartitionId p, ServerId s) const;

  /// Visit the partition's nonzero tr_bar cells, ascending server id,
  /// skipping servers cleared since the last fold.
  template <typename Fn>
  void for_each_node_cell(PartitionId p, Fn&& fn) const {
    RFH_ASSERT(p.value() < partitions_);
    for (const StatCell& cell : node_cells_[p.value()]) {
      if ((flags_[cell.server] & kCleared) == 0) fn(cell);
    }
  }

  /// Smoothed queries for p issued near datacenter j.
  [[nodiscard]] double requester_queries(PartitionId p, DatacenterId j) const;

  /// Smoothed per-server arrival rate (queries touched per epoch).
  [[nodiscard]] double server_arrival(ServerId s) const;

  /// Eq. 17: mean smoothed traffic for p over the N live servers.
  [[nodiscard]] double mean_node_traffic(PartitionId p,
                                         std::size_t live_servers) const;

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }

 private:
  static constexpr std::uint8_t kFrozen = 1;   // stale-stats fault
  static constexpr std::uint8_t kCleared = 2;  // cleared since the last fold

  std::size_t partitions_;
  std::size_t servers_;
  std::size_t datacenters_;
  double alpha_;  // effective history weight
  bool initialized_ = false;
  std::vector<double> avg_query_;                 // [p]
  std::vector<std::vector<StatCell>> node_cells_;  // [p], sorted by server
  std::vector<double> requester_queries_;  // [p][dc], empty without rows
  std::vector<double> server_arrival_;     // [s]
  std::vector<std::uint8_t> flags_;        // [s] kFrozen | kCleared
  /// Per fold shard: `slot` ([s]) and the cells new to the partition.
  struct FoldScratch {
    std::vector<std::uint32_t> slot;
    std::vector<StatCell> added;
  };
  std::vector<FoldScratch> scratch_;
};

}  // namespace rfh
