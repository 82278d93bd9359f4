#include "sim/stats.h"

#include <algorithm>

#include "common/assert.h"
#include "exec/parallel_for.h"

namespace rfh {

TrafficStats::TrafficStats(std::size_t partitions, std::size_t servers,
                           std::size_t datacenters, double alpha,
                           bool alpha_weights_history)
    : partitions_(partitions),
      servers_(servers),
      datacenters_(datacenters),
      alpha_(alpha_weights_history ? alpha : 1.0 - alpha),
      avg_query_(partitions, 0.0),
      node_cells_(partitions),
      node_traffic_sum_(partitions, 0.0),
      requester_queries_(partitions * datacenters, 0.0),
      server_arrival_(servers, 0.0),
      frozen_(servers, 0) {
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

  // Partition axis: every write below lands in a [p]-indexed slot, so
  // shards owning disjoint partition ranges share nothing, and each
  // output is a pure function of its own partition's inputs — identical
  // for every shard count.
  parallel_for_shards(
      pool, partitions_,
      shard_count_for(pool, partitions_, /*min_grain=*/64),
      [&](unsigned /*shard*/, IndexRange range) {
        std::vector<StatCell> merged;
        for (std::size_t p = range.begin; p < range.end; ++p) {
          const PartitionId pid{static_cast<std::uint32_t>(p)};
          const double q_avg = traffic.partition_queries(pid) /
                               static_cast<double>(datacenters_);
          avg_query_[p] = a * avg_query_[p] + b * q_avg;

          // Sorted merge of the EWMA cells with the epoch's traffic
          // cells. Both lists ascend by server id, so the visit order —
          // and therefore the Eq. 17 sum's association order — matches
          // the dense 0..S-1 scan; servers on neither side would add
          // exactly +0.0 and are skipped.
          const std::vector<StatCell>& old_cells = node_cells_[p];
          const std::span<const TrafficCell> fresh = traffic.cells(pid);
          merged.clear();
          merged.reserve(old_cells.size() + fresh.size());
          double sum = 0.0;
          std::size_t i = 0;
          std::size_t j = 0;
          while (i < old_cells.size() || j < fresh.size()) {
            const bool take_old =
                j >= fresh.size() ||
                (i < old_cells.size() &&
                 old_cells[i].server <= fresh[j].server);
            const bool take_fresh =
                i >= old_cells.size() ||
                (j < fresh.size() && fresh[j].server <= old_cells[i].server);
            const std::uint32_t server =
                take_old ? old_cells[i].server : fresh[j].server;
            const double prev = take_old ? old_cells[i].ewma : 0.0;
            const double obs = take_fresh ? fresh[j].node : 0.0;
            // A frozen server keeps its stale EWMA (a frozen absent cell
            // stays absent: prev == 0.0 is not pushed, and contributes
            // the same +0.0 to the Eq. 17 sum as the dense scan would).
            const double v = frozen_[server] != 0 ? prev : a * prev + b * obs;
            sum += v;
            if (v != 0.0) merged.push_back(StatCell{server, v});
            if (take_old) ++i;
            if (take_fresh) ++j;
          }
          // Hand the merged cells over instead of copying them; `merged`
          // takes the old buffer and reuses it for the shard's next
          // partition. A scratch buffer more than twice the cells' size
          // is copied from instead, so it stays scratch: swapping alone
          // lets every partition's capacity creep up to the hottest
          // partition's over the epochs.
          if (merged.capacity() <= 2 * merged.size()) {
            node_cells_[p].swap(merged);
          } else {
            node_cells_[p].assign(merged.begin(), merged.end());
          }
          node_traffic_sum_[p] = sum;

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
  // Server axis: same argument, one slot per server.
  parallel_for_shards(pool, servers_,
                      shard_count_for(pool, servers_, /*min_grain=*/4096),
                      [&](unsigned /*shard*/, IndexRange range) {
                        for (std::size_t s = range.begin; s < range.end; ++s) {
                          if (frozen_[s] != 0) continue;
                          server_arrival_[s] =
                              a * server_arrival_[s] +
                              b * traffic.server_work(
                                      ServerId{static_cast<std::uint32_t>(s)});
                        }
                      });
}

void TrafficStats::set_frozen(ServerId s, bool frozen) {
  RFH_ASSERT(s.value() < servers_);
  frozen_[s.value()] = frozen ? 1 : 0;
}

bool TrafficStats::frozen(ServerId s) const {
  RFH_ASSERT(s.value() < servers_);
  return frozen_[s.value()] != 0;
}

void TrafficStats::clear_servers(std::span<const ServerId> servers) {
  if (servers.empty()) return;
  std::vector<std::uint8_t> gone(servers_, 0);
  for (const ServerId s : servers) {
    RFH_ASSERT(s.value() < servers_);
    server_arrival_[s.value()] = 0.0;
    gone[s.value()] = 1;
  }
  for (std::uint32_t p = 0; p < partitions_; ++p) {
    std::vector<StatCell>& cells = node_cells_[p];
    const auto kept = std::remove_if(
        cells.begin(), cells.end(),
        [&](const StatCell& c) { return gone[c.server] != 0; });
    if (kept == cells.end()) continue;
    cells.erase(kept, cells.end());
    // Recompute the Eq. 17 numerator from scratch rather than
    // subtracting: the next update() does the same ascending re-sum, so
    // this keeps the two code paths bit-identical for the oracle.
    double sum = 0.0;
    for (const StatCell& cell : cells) sum += cell.ewma;
    node_traffic_sum_[p] = sum;
  }
}

double TrafficStats::avg_query(PartitionId p) const {
  RFH_ASSERT(p.value() < partitions_);
  return avg_query_[p.value()];
}

double TrafficStats::node_traffic(PartitionId p, ServerId s) const {
  RFH_ASSERT(p.value() < partitions_ && s.value() < servers_);
  const std::vector<StatCell>& cells = node_cells_[p.value()];
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), s.value(),
      [](const StatCell& c, std::uint32_t v) { return c.server < v; });
  if (it == cells.end() || it->server != s.value()) return 0.0;
  return it->ewma;
}

std::span<const StatCell> TrafficStats::node_cells(PartitionId p) const {
  RFH_ASSERT(p.value() < partitions_);
  return node_cells_[p.value()];
}

double TrafficStats::requester_queries(PartitionId p, DatacenterId j) const {
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
  return node_traffic_sum_[p.value()] / static_cast<double>(live_servers);
}

}  // namespace rfh
