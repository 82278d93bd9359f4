#include "sim/stats.h"

#include <algorithm>

#include "common/assert.h"
#include "exec/parallel_for.h"

namespace rfh {

TrafficStats::TrafficStats(std::size_t partitions, std::size_t servers,
                           std::size_t datacenters, double alpha,
                           bool alpha_weights_history, bool requester_rows)
    : partitions_(partitions),
      servers_(servers),
      datacenters_(datacenters),
      alpha_(alpha_weights_history ? alpha : 1.0 - alpha),
      avg_query_(partitions, 0.0),
      node_cells_(partitions),
      requester_queries_(requester_rows ? partitions * datacenters : 0, 0.0),
      server_arrival_(servers, 0.0),
      flags_(servers, 0) {
  RFH_ASSERT(alpha > 0.0 && alpha < 1.0);
}

void TrafficStats::update(const EpochTraffic& traffic, ThreadPool* pool) {
  RFH_ASSERT(traffic.partitions() == partitions_);
  RFH_ASSERT(traffic.servers() == servers_);
  RFH_ASSERT(traffic.datacenters() == datacenters_);

  // The first epoch initializes the averages directly (no zero bias).
  const double a = initialized_ ? alpha_ : 0.0;
  const double b = 1.0 - a;
  initialized_ = true;

  // A frozen server keeps its stale EWMA (a frozen absent cell stays
  // absent); a cleared one folds from prev = 0.0, and a new one too.
  const auto fold = [&](std::uint32_t server, double prev, double obs) {
    return (flags_[server] & kFrozen) != 0 ? prev : a * prev + b * obs;
  };

  // Partition axis: every write below lands in a [p]-indexed slot (or
  // the shard's own scratch), so shards owning disjoint partition ranges
  // share nothing, and each output is a pure function of its own
  // partition's inputs — identical for every shard count.
  const unsigned shards = shard_count_for(pool, partitions_, /*min_grain=*/64);
  if (scratch_.size() < shards) scratch_.resize(shards);
  parallel_for_shards(
      pool, partitions_, shards, [&](unsigned shard, IndexRange range) {
        std::vector<std::uint32_t>& slot = scratch_[shard].slot;
        std::vector<StatCell>& added = scratch_[shard].added;
        if (slot.size() != servers_) slot.assign(servers_, 0);
        for (std::size_t p = range.begin; p < range.end; ++p) {
          const PartitionId pid{static_cast<std::uint32_t>(p)};
          const double q_avg = traffic.partition_queries(pid) /
                               static_cast<double>(datacenters_);
          avg_query_[p] = a * avg_query_[p] + b * q_avg;

          // The fresh cells come in any order: each one's server slot
          // names it (1-based) for the length of this partition's fold.
          std::vector<StatCell>& cells = node_cells_[p];
          const std::span<const TrafficCell> fresh = traffic.cells(pid);
          for (std::size_t j = 0; j < fresh.size(); ++j) {
            slot[fresh[j].server] = static_cast<std::uint32_t>(j + 1);
          }
          // Fold the resident cells in place (obs = 0.0 if untouched),
          // compacting out exact zeros and spending their slots.
          std::size_t kept = 0;
          std::size_t spent = 0;
          for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::uint32_t s = cells[i].server;
            double obs = 0.0;
            if (slot[s] != 0) {
              obs = fresh[slot[s] - 1].node;
              slot[s] = 0;
              ++spent;
            }
            const double prev =
                (flags_[s] & kCleared) != 0 ? 0.0 : cells[i].ewma;
            const double v = fold(s, prev, obs);
            if (v != 0.0) cells[kept++] = StatCell{s, v};
          }
          cells.resize(kept);
          if (spent < fresh.size()) {
            // The servers still holding a slot are new to the partition:
            // sort the nonzero ones and merge them in from the back.
            added.clear();
            for (const TrafficCell& cell : fresh) {
              if (slot[cell.server] == 0) continue;
              slot[cell.server] = 0;
              const double v = fold(cell.server, 0.0, cell.node);
              if (v != 0.0) added.push_back(StatCell{cell.server, v});
            }
            std::sort(added.begin(), added.end(),
                      [](const StatCell& x, const StatCell& y) {
                        return x.server < y.server;
                      });
            cells.resize(kept + added.size());
            std::size_t w = cells.size();
            for (std::size_t i = kept, k = added.size(); k > 0;) {
              const StatCell& cell = added[--k];
              while (i > 0 && cells[i - 1].server > cell.server) {
                cells[--w] = cells[--i];
              }
              cells[--w] = cell;
            }
          }
          if (requester_queries_.empty()) continue;
          // Merge the partition's demand (ascending requester) into its
          // requester row; a DC with no flow still takes a*v + b*0.0.
          const std::span<const QueryFlow> flows = traffic.demand(pid);
          std::size_t f = 0;
          for (std::uint32_t dc = 0; dc < datacenters_; ++dc) {
            const bool seen =
                f < flows.size() && flows[f].requester.value() == dc;
            double& v = requester_queries_[p * datacenters_ + dc];
            v = a * v + b * (seen ? flows[f++].queries : 0.0);
          }
        }
      });
  // Server axis: one slot per server, as above; clear marks end here.
  parallel_for_shards(pool, servers_,
                      shard_count_for(pool, servers_, /*min_grain=*/4096),
                      [&](unsigned /*shard*/, IndexRange range) {
                        for (std::size_t s = range.begin; s < range.end; ++s) {
                          flags_[s] &= kFrozen;
                          if (flags_[s] != 0) continue;
                          server_arrival_[s] =
                              a * server_arrival_[s] +
                              b * traffic.server_work(
                                      ServerId{static_cast<std::uint32_t>(s)});
                        }
                      });
}

void TrafficStats::set_frozen(ServerId s, bool frozen) {
  RFH_ASSERT(s.value() < servers_);
  flags_[s.value()] = static_cast<std::uint8_t>(
      (flags_[s.value()] & kCleared) | (frozen ? kFrozen : 0));
}

bool TrafficStats::frozen(ServerId s) const {
  RFH_ASSERT(s.value() < servers_);
  return (flags_[s.value()] & kFrozen) != 0;
}

void TrafficStats::clear_servers(std::span<const ServerId> servers) {
  for (const ServerId s : servers) {
    RFH_ASSERT(s.value() < servers_);
    server_arrival_[s.value()] = 0.0;
    flags_[s.value()] |= kCleared;
  }
}

double TrafficStats::avg_query(PartitionId p) const {
  RFH_ASSERT(p.value() < partitions_);
  return avg_query_[p.value()];
}

double TrafficStats::node_traffic(PartitionId p, ServerId s) const {
  RFH_ASSERT(p.value() < partitions_ && s.value() < servers_);
  if ((flags_[s.value()] & kCleared) != 0) return 0.0;
  const std::vector<StatCell>& cells = node_cells_[p.value()];
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), s.value(),
      [](const StatCell& c, std::uint32_t v) { return c.server < v; });
  if (it == cells.end() || it->server != s.value()) return 0.0;
  return it->ewma;
}

double TrafficStats::requester_queries(PartitionId p, DatacenterId j) const {
  RFH_ASSERT_MSG(!requester_queries_.empty(),
                 "requester rows need a policy that reads_requester_stats()");
  RFH_ASSERT(p.value() < partitions_ && j.value() < datacenters_);
  return requester_queries_[p.value() * datacenters_ + j.value()];
}

double TrafficStats::server_arrival(ServerId s) const {
  RFH_ASSERT(s.value() < servers_);
  return server_arrival_[s.value()];
}

double TrafficStats::mean_node_traffic(PartitionId p,
                                       std::size_t live_servers) const {
  RFH_ASSERT(p.value() < partitions_);
  if (live_servers == 0) return 0.0;
  // Eq. 17's numerator, summed in ascending server order.
  double sum = 0.0;
  for_each_node_cell(p, [&](const StatCell& cell) { sum += cell.ewma; });
  return sum / static_cast<double>(live_servers);
}

}  // namespace rfh
