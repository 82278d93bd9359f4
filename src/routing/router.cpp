#include "routing/router.h"

#include <algorithm>

#include "common/assert.h"
#include "ring/hash.h"
#include "ring/rendezvous.h"
#include "ring/ring.h"
#include "telemetry/registry.h"

namespace rfh {

namespace {

std::uint64_t relay_key(PartitionId partition, DatacenterId dc) {
  return hash_combine(HashRing::partition_key(partition),
                      hash64(std::uint64_t{dc.value()}));
}

}  // namespace

Router::Router(const Topology& topology, const ShortestPaths& paths,
               std::size_t partitions)
    : topology_(&topology),
      paths_(&paths),
      partition_keys_(partitions),
      server_hashes_(topology.server_count()),
      dc_hashes_(topology.datacenter_count()),
      relays_(topology.datacenter_count() * partitions, ServerId::invalid()) {
  RFH_ASSERT(topology.datacenter_count() == paths.size());
  for (std::size_t p = 0; p < partitions; ++p) {
    partition_keys_[p] =
        HashRing::partition_key(PartitionId{static_cast<std::uint32_t>(p)});
  }
  for (std::size_t s = 0; s < server_hashes_.size(); ++s) {
    server_hashes_[s] = hash64(std::uint64_t{s});
  }
  for (std::size_t dc = 0; dc < dc_hashes_.size(); ++dc) {
    dc_hashes_[dc] = hash64(std::uint64_t{dc});
  }
}

void Router::set_telemetry(MetricRegistry* registry) {
  if (registry == nullptr) {
    routes_ = nullptr;
    stages_ = nullptr;
    dead_skips_ = nullptr;
    return;
  }
  routes_ = &registry->counter("rfh_router_routes_total", {},
                               "Routes computed");
  stages_ = &registry->counter("rfh_router_route_stages_total", {},
                               "Datacenter stages across all routes");
  dead_skips_ = &registry->counter(
      "rfh_router_dead_dc_skips_total", {},
      "Transit datacenters skipped because no server was alive");
}

void Router::servers_down(std::span<const ServerId> servers) {
  const std::size_t partitions = partition_keys_.size();
  for (const ServerId s : servers) {
    ServerId* const column =
        relays_.data() +
        std::size_t{topology_->server(s).datacenter.value()} * partitions;
    std::replace(column, column + partitions, s, ServerId::invalid());
  }
}

void Router::servers_up(std::span<const ServerId> servers) {
  const std::size_t partitions = partition_keys_.size();
  for (const ServerId s : servers) {
    const DatacenterId dc = topology_->server(s).datacenter;
    const std::uint64_t dc_hash = dc_hashes_[dc.value()];
    const std::uint64_t server_hash = server_hashes_[s.value()];
    ServerId* const column =
        relays_.data() + std::size_t{dc.value()} * partitions;
    for (std::size_t p = 0; p < partitions; ++p) {
      ServerId& cell = column[p];
      if (!cell.valid()) continue;  // picked fresh on the next lookup
      // rendezvous_pick's order: higher weight wins, ties to the lower id.
      const std::uint64_t key = hash_combine(partition_keys_[p], dc_hash);
      const std::uint64_t mine = hash_combine(key, server_hash);
      const std::uint64_t theirs =
          hash_combine(key, server_hashes_[cell.value()]);
      if (mine > theirs || (mine == theirs && s < cell)) cell = s;
    }
  }
}

ServerId Router::cached_relay(PartitionId partition, DatacenterId dc) const {
  return relay_cell(partition, dc);
}

ServerId Router::relay_for(PartitionId partition, DatacenterId dc,
                           std::span<const ServerId> live_servers) {
  return rendezvous_pick(relay_key(partition, dc), live_servers);
}

ServerId Router::fill_relay(PartitionId partition, DatacenterId dc,
                            std::span<const ServerId> live_servers) const {
  return rendezvous_pick(hash_combine(partition_keys_[partition.value()],
                                      dc_hashes_[dc.value()]),
                         live_servers, server_hashes_);
}

void Router::flush_counts(RouteCtx& ctx) const {
  // Counters hold integer-valued doubles; batching shard tallies into one
  // inc() is exact below 2^53, so totals match per-route incs.
  if (dead_skips_ != nullptr && ctx.dead_skips > 0) {
    dead_skips_->inc(static_cast<double>(ctx.dead_skips));
  }
  if (routes_ != nullptr && ctx.routes > 0) {
    routes_->inc(static_cast<double>(ctx.routes));
    stages_->inc(static_cast<double>(ctx.stages));
  }
  ctx.routes = 0;
  ctx.stages = 0;
  ctx.dead_skips = 0;
}

}  // namespace rfh
