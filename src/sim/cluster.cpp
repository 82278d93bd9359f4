#include "sim/cluster.h"

#include <algorithm>

#include "common/assert.h"

namespace rfh {

ClusterState::ClusterState(const Topology& topology, const SimConfig& config)
    : topology_(&topology),
      config_(&config),
      partitions_(config.partitions),
      servers_(static_cast<std::uint32_t>(topology.server_count())),
      live_by_dc_(topology.datacenter_count()),
      ring_(kRingTokensPerServer) {
  servers_.bring_all_up();
  std::vector<ServerId> all;
  all.reserve(topology.server_count());
  for (const Server& s : topology.servers()) {
    all.push_back(s.id);
    live_by_dc_[s.datacenter.value()].push_back(s.id);
  }
  ring_.add_servers(all);
}

void ClusterState::add_replica(PartitionId p, ServerId s, bool primary) {
  RFH_ASSERT_MSG(alive(s), "cannot place a copy on a dead server");
  if (primary) {
    RFH_ASSERT_MSG(!primary_of(p).valid(), "partition already has a primary");
  }
  partitions_.add(p, s, primary);
  servers_.add_storage(s, config_->unit_size());
  servers_.inc_copies(s);
}

void ClusterState::remove_replica(PartitionId p, ServerId s) {
  partitions_.remove(p, s);
  servers_.sub_storage(s, config_->unit_size());
  servers_.dec_copies(s);
}

void ClusterState::set_primary(PartitionId p, ServerId s) {
  partitions_.set_primary(p, s);
}

ServerId ClusterState::primary_of(PartitionId p) const {
  return partitions_.primary_of(p);
}

std::span<const Replica> ClusterState::replicas_of(PartitionId p) const {
  return partitions_.replicas(p);
}

bool ClusterState::has_replica(PartitionId p, ServerId s) const {
  return partitions_.has(p, s);
}

std::uint32_t ClusterState::replica_count(PartitionId p) const {
  return partitions_.count(p);
}

std::vector<ServerId> ClusterState::hosts_in_dc(PartitionId p,
                                                DatacenterId dc) const {
  std::vector<ServerId> out;
  ServerId primary = ServerId::invalid();
  for (const Replica& r : replicas_of(p)) {
    if (topology_->server(r.server).datacenter == dc) {
      if (r.primary) {
        primary = r.server;
      } else {
        out.push_back(r.server);
      }
    }
  }
  std::sort(out.begin(), out.end());
  if (primary.valid()) out.push_back(primary);
  return out;
}

Bytes ClusterState::storage_used(ServerId s) const {
  return servers_.storage_used(s);
}

double ClusterState::storage_fraction(ServerId s) const {
  const Bytes cap = topology_->server(s).spec.storage_capacity;
  return cap == 0 ? 1.0
                  : static_cast<double>(storage_used(s)) /
                        static_cast<double>(cap);
}

std::uint32_t ClusterState::copies_on(ServerId s) const {
  return servers_.copies(s);
}

std::optional<DropReason> ClusterState::refusal(ServerId s,
                                                PartitionId p) const {
  if (!alive(s)) return DropReason::kDeadTarget;
  if (has_replica(p, s)) return DropReason::kInvalid;
  const ServerSpec& spec = topology_->server(s).spec;
  if (copies_on(s) >= spec.max_vnodes) return DropReason::kNodeCap;
  if (config_->redundancy == RedundancyMode::kErasure) {
    // Zone diversity: no datacenter may hold more than m fragments of a
    // stripe, so losing one whole DC can never destroy more fragments
    // than the stripe's parity budget tolerates.
    const DatacenterId dc = topology_->server(s).datacenter;
    std::uint32_t in_dc = 0;
    for (const Replica& r : replicas_of(p)) {
      if (topology_->server(r.server).datacenter == dc) ++in_dc;
    }
    if (in_dc >= config_->ec_m) return DropReason::kZoneDiversity;
  }
  const auto projected =
      static_cast<double>(storage_used(s) + config_->unit_size());
  if (projected >
      config_->storage_limit * static_cast<double>(spec.storage_capacity)) {
    return DropReason::kStorageCap;
  }
  return std::nullopt;
}

bool ClusterState::alive(ServerId s) const { return servers_.alive(s); }

std::vector<ServerId> ClusterState::live_at_ranks(
    std::span<const std::size_t> ranks) const {
  std::vector<ServerId> out(ranks.size());
  if (ranks.empty()) return out;
  // Visit the ranks in ascending order while walking the column once.
  std::vector<std::uint32_t> order(ranks.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ranks[a] < ranks[b];
  });
  std::size_t next = 0;
  std::size_t rank = 0;
  for (std::uint32_t s = 0; s < servers_.servers() && next < order.size();
       ++s) {
    if (!servers_.alive(ServerId{s})) continue;
    while (next < order.size() && ranks[order[next]] == rank) {
      out[order[next++]] = ServerId{s};
    }
    ++rank;
  }
  RFH_ASSERT_MSG(next == order.size(), "rank beyond the live servers");
  return out;
}

void ClusterState::kill_servers(
    std::span<const ServerId> servers,
    const std::function<void(ServerId, std::span<const LostCopy>)>&
        on_killed) {
  if (servers.empty()) return;
  // (victim server, its index in `servers`), sorted by server.
  std::vector<std::pair<ServerId, std::uint32_t>> rank;
  rank.reserve(servers.size());
  for (const ServerId s : servers) {
    RFH_ASSERT_MSG(alive(s), "server already dead");
    servers_.set_alive(s, false);
    live_list_erase(s);
    rank.emplace_back(s, static_cast<std::uint32_t>(rank.size()));
  }
  ring_.remove_servers(servers);
  std::sort(rank.begin(), rank.end());

  // One pass over the partitions. The victims are now the only dead
  // servers hosting copies, so every dead host's copy goes; survivors
  // keep their slot order.
  struct Loss {
    std::uint32_t victim = 0;
    LostCopy copy;
  };
  std::vector<Loss> losses;
  for (std::uint32_t p = 0; p < partitions_.partitions(); ++p) {
    const PartitionId pid{p};
    partitions_.remove_if(pid, [&](const Replica& r) {
      if (alive(r.server)) return false;
      const auto it = std::lower_bound(
          rank.begin(), rank.end(), std::pair{r.server, std::uint32_t{0}});
      losses.push_back(Loss{it->second, LostCopy{pid, r.primary}});
      servers_.sub_storage(r.server, config_->unit_size());
      servers_.dec_copies(r.server);
      return true;
    });
  }
  if (!on_killed) return;

  // Hand each victim its losses, in victim order. The sort is stable, so
  // each list stays in ascending partition order.
  std::stable_sort(losses.begin(), losses.end(),
                   [](const Loss& a, const Loss& b) {
                     return a.victim < b.victim;
                   });
  std::vector<LostCopy> mine;
  std::size_t next = 0;
  for (std::uint32_t i = 0; i < servers.size(); ++i) {
    mine.clear();
    for (; next < losses.size() && losses[next].victim == i; ++next) {
      mine.push_back(losses[next].copy);
    }
    on_killed(servers[i], mine);
  }
}

void ClusterState::revive_servers(std::span<const ServerId> servers) {
  if (servers.empty()) return;
  for (const ServerId s : servers) {
    servers_.set_alive(s, true);
    live_list_insert(s);
  }
  ring_.add_servers(servers);
}

void ClusterState::live_list_insert(ServerId s) {
  std::vector<ServerId>& list =
      live_by_dc_[topology_->server(s).datacenter.value()];
  const auto it = std::lower_bound(list.begin(), list.end(), s);
  RFH_ASSERT(it == list.end() || *it != s);
  list.insert(it, s);
}

void ClusterState::live_list_erase(ServerId s) {
  std::vector<ServerId>& list =
      live_by_dc_[topology_->server(s).datacenter.value()];
  const auto it = std::lower_bound(list.begin(), list.end(), s);
  RFH_ASSERT(it != list.end() && *it == s);
  list.erase(it);
}

void ClusterState::check_invariants() const {
  std::vector<Bytes> used(topology_->server_count(), 0);
  std::vector<std::uint32_t> copies(topology_->server_count(), 0);
  std::uint32_t total = 0;
  for (std::uint32_t p = 0; p < partitions_.partitions(); ++p) {
    std::uint32_t primaries = 0;
    for (const Replica& r : partitions_.replicas(PartitionId{p})) {
      RFH_ASSERT_MSG(alive(r.server), "copy on dead server");
      used[r.server.value()] += config_->unit_size();
      copies[r.server.value()] += 1;
      total += 1;
      if (r.primary) ++primaries;
    }
    RFH_ASSERT_MSG(primaries <= 1, "multiple primaries");
    if (partitions_.count(PartitionId{p}) > 0) {
      RFH_ASSERT_MSG(primaries == 1, "partition without a primary");
    }
  }
  RFH_ASSERT(total == partitions_.total());
  for (std::uint32_t s = 0; s < topology_->server_count(); ++s) {
    const ServerId sid{s};
    RFH_ASSERT(used[s] == servers_.storage_used(sid));
    RFH_ASSERT(copies[s] == servers_.copies(sid));
    if (!alive(sid)) {
      RFH_ASSERT_MSG(copies[s] == 0, "dead server hosts copies");
    }
  }
  std::uint32_t live_listed = 0;
  for (const std::vector<ServerId>& list : live_by_dc_) {
    RFH_ASSERT(std::is_sorted(list.begin(), list.end()));
    for (const ServerId s : list) RFH_ASSERT(alive(s));
    live_listed += static_cast<std::uint32_t>(list.size());
  }
  RFH_ASSERT(live_listed == servers_.live_count());
}

}  // namespace rfh
