#include "check/reference.h"

#include <algorithm>

#include "common/assert.h"
#include "common/availability.h"
#include "common/erlang.h"
#include "ring/hash.h"
#include "ring/rendezvous.h"
#include "ring/ring.h"
#include "sim/engine.h"

namespace rfh {

namespace {

// RfhPolicy's default Options, transcribed as constants: the harness
// always runs the engine with PolicyKind::kRfh defaults, so the oracle
// hard-codes the same knobs rather than sharing the Options struct.
constexpr std::uint32_t kTopHubs = 3;
constexpr std::uint32_t kOverloadStreakEpochs = 3;
constexpr std::uint32_t kColdStreakEpochs = 6;
constexpr std::uint32_t kMaxSuicidesPerEpoch = 1;

std::pair<std::uint32_t, std::uint32_t> link_key(DatacenterId a,
                                                 DatacenterId b) {
  return {std::min(a.value(), b.value()), std::max(a.value(), b.value())};
}

}  // namespace

ReferenceEngine::ReferenceEngine(const Scenario& scenario)
    : world_(make_world(scenario)),
      config_(scenario.sim),
      workload_(make_workload(scenario, world_)),
      rng_workload_(Rng(config_.seed).fork(kWorkloadStreamTag)),
      replicas_(config_.partitions),
      storage_used_(world_.topology.server_count(), 0),
      copies_on_(world_.topology.server_count(), 0),
      alive_(world_.topology.server_count(), 0),
      live_by_dc_(world_.topology.datacenter_count()),
      e_node_traffic_(config_.partitions * world_.topology.server_count(), 0.0),
      e_served_(config_.partitions * world_.topology.server_count(), 0.0),
      e_partition_queries_(config_.partitions, 0.0),
      e_unserved_(config_.partitions, 0.0),
      e_server_work_(world_.topology.server_count(), 0.0),
      avg_query_(config_.partitions, 0.0),
      node_traffic_(config_.partitions * world_.topology.server_count(), 0.0),
      server_arrival_(world_.topology.server_count(), 0.0),
      stats_frozen_(world_.topology.server_count(), 0),
      overload_streak_(config_.partitions, 0),
      replication_bytes_(world_.topology.server_count(), 0),
      migration_bytes_(world_.topology.server_count(), 0),
      stripe_lost_(config_.partitions, 0) {
  // Bring every server up in topology order — the same insertion order the
  // engine's ClusterState uses, which fixes the ring's token layout.
  for (const Server& s : world_.topology.servers()) {
    alive_[s.id.value()] = 1;
    ++live_count_;
    ring_add(s.id);
  }
  rebuild_live_by_dc();
  graph_ = std::make_unique<DcGraph>(world_.topology.datacenter_count(),
                                     world_.links);
  RFH_ASSERT_MSG(graph_->connected(), "datacenter graph must be connected");
  paths_ = std::make_unique<ShortestPaths>(*graph_);
  seed_primaries();
}

// --- naive ring ------------------------------------------------------------

void ReferenceEngine::ring_add(ServerId s) {
  RFH_ASSERT(!ring_tokens_.contains(s));
  std::vector<std::uint64_t>& tokens = ring_tokens_[s];
  for (std::uint32_t i = 0; i < kRingTokensPerServer; ++i) {
    std::uint64_t pos = hash_combine(hash64(std::uint64_t{s.value()}),
                                     hash64(std::uint64_t{i}));
    // The seed's collision probe: advance past occupied positions so every
    // server owns exactly tokens_per_server positions. HashRing keeps
    // departed servers' tokens and probes past those too (ring.h), which
    // differs only on a 64-bit position collision.
    while (ring_.contains(pos)) ++pos;
    ring_.emplace(pos, s);
    tokens.push_back(pos);
  }
}

void ReferenceEngine::ring_remove(ServerId s) {
  const auto it = ring_tokens_.find(s);
  RFH_ASSERT(it != ring_tokens_.end());
  for (const std::uint64_t pos : it->second) {
    ring_.erase(pos);
  }
  ring_tokens_.erase(it);
}

std::vector<ServerId> ReferenceEngine::preference_list(std::uint64_t key,
                                                       std::size_t n) const {
  RFH_ASSERT_MSG(!ring_.empty(), "ring is empty");
  const std::size_t want = std::min(n, ring_tokens_.size());
  std::vector<ServerId> walk;
  walk.reserve(want);
  auto it = ring_.lower_bound(key);
  for (std::size_t step = 0; step < ring_.size() && walk.size() < want;
       ++step) {
    if (it == ring_.end()) it = ring_.begin();
    const ServerId candidate = it->second;
    if (std::find(walk.begin(), walk.end(), candidate) == walk.end()) {
      walk.push_back(candidate);
    }
    ++it;
  }
  return walk;
}

// --- cluster bookkeeping ---------------------------------------------------

void ReferenceEngine::add_replica(PartitionId p, ServerId s, bool primary) {
  RFH_ASSERT(alive_[s.value()] != 0);
  RFH_ASSERT(!has_replica(p, s));
  replicas_[p.value()].push_back(Replica{s, primary});
  storage_used_[s.value()] += config_.unit_size();
  copies_on_[s.value()] += 1;
  total_replicas_ += 1;
}

void ReferenceEngine::remove_replica(PartitionId p, ServerId s) {
  auto& list = replicas_[p.value()];
  const auto it = std::find_if(
      list.begin(), list.end(),
      [s](const Replica& r) { return r.server == s; });
  RFH_ASSERT(it != list.end());
  list.erase(it);
  storage_used_[s.value()] -= config_.unit_size();
  copies_on_[s.value()] -= 1;
  total_replicas_ -= 1;
}

void ReferenceEngine::set_primary(PartitionId p, ServerId s) {
  bool found = false;
  for (Replica& r : replicas_[p.value()]) {
    if (r.server == s) {
      r.primary = true;
      found = true;
    } else {
      r.primary = false;
    }
  }
  RFH_ASSERT(found);
}

ServerId ReferenceEngine::primary_of(PartitionId p) const {
  for (const Replica& r : replicas_[p.value()]) {
    if (r.primary) return r.server;
  }
  return ServerId::invalid();
}

std::span<const Replica> ReferenceEngine::replicas_of(PartitionId p) const {
  return replicas_[p.value()];
}

double ReferenceEngine::avg_query(PartitionId p) const {
  return avg_query_[p.value()];
}

double ReferenceEngine::node_traffic(PartitionId p, ServerId s) const {
  return node_traffic_[traffic_index(p, s)];
}

bool ReferenceEngine::alive(ServerId s) const {
  return alive_[s.value()] != 0;
}

bool ReferenceEngine::has_replica(PartitionId p, ServerId s) const {
  const auto& list = replicas_[p.value()];
  return std::any_of(list.begin(), list.end(),
                     [s](const Replica& r) { return r.server == s; });
}

bool ReferenceEngine::can_accept(ServerId s, PartitionId p) const {
  if (alive_[s.value()] == 0 || has_replica(p, s)) return false;
  const ServerSpec& spec = world_.topology.server(s).spec;
  if (copies_on_[s.value()] >= spec.max_vnodes) return false;
  if (config_.redundancy == RedundancyMode::kErasure) {
    // Zone-diversity rule: at most m fragments of one stripe per
    // datacenter, so no single DC loss drops a stripe below k.
    const DatacenterId dc = world_.topology.server(s).datacenter;
    std::uint32_t in_dc = 0;
    for (const Replica& r : replicas_[p.value()]) {
      if (world_.topology.server(r.server).datacenter == dc) ++in_dc;
    }
    if (in_dc >= config_.ec_m) return false;
  }
  const auto projected =
      static_cast<double>(storage_used_[s.value()] + config_.unit_size());
  return projected <=
         config_.storage_limit * static_cast<double>(spec.storage_capacity);
}

std::vector<ServerId> ReferenceEngine::hosts_in_dc(PartitionId p,
                                                   DatacenterId dc) const {
  std::vector<ServerId> non_primary;
  std::vector<ServerId> primary;
  for (const Replica& r : replicas_[p.value()]) {
    if (world_.topology.server(r.server).datacenter == dc) {
      (r.primary ? primary : non_primary).push_back(r.server);
    }
  }
  std::sort(non_primary.begin(), non_primary.end());
  non_primary.insert(non_primary.end(), primary.begin(), primary.end());
  return non_primary;
}

void ReferenceEngine::rebuild_live_by_dc() {
  for (auto& list : live_by_dc_) list.clear();
  for (const Server& s : world_.topology.servers()) {
    if (alive_[s.id.value()] != 0) {
      live_by_dc_[s.datacenter.value()].push_back(s.id);
    }
  }
}

void ReferenceEngine::seed_primaries() {
  for (std::uint32_t pv = 0; pv < config_.partitions; ++pv) {
    const PartitionId p{pv};
    const auto preference =
        preference_list(HashRing::partition_key(p), live_count_);
    ServerId home = preference.front();
    for (const ServerId candidate : preference) {
      if (can_accept(candidate, p)) {
        home = candidate;
        break;
      }
    }
    add_replica(p, home, /*primary=*/true);
  }
}

// --- failure mirroring -----------------------------------------------------

void ReferenceEngine::clear_server_stats(ServerId s) {
  server_arrival_[s.value()] = 0.0;
  const std::size_t servers = world_.topology.server_count();
  for (std::uint32_t pv = 0; pv < config_.partitions; ++pv) {
    node_traffic_[pv * servers + s.value()] = 0.0;
  }
}

void ReferenceEngine::set_stats_frozen(ServerId s, bool frozen) {
  stats_frozen_[s.value()] = frozen ? 1 : 0;
}

void ReferenceEngine::handle_lost_copies(std::span<const LostCopy> lost) {
  for (const LostCopy& copy : lost) {
    if (!copy.was_primary) continue;
    ServerId best;
    double best_traffic = -1.0;
    for (const Replica& r : replicas_[copy.partition.value()]) {
      const double tr = node_traffic_[traffic_index(copy.partition, r.server)];
      if (!best.valid() || tr > best_traffic ||
          (tr == best_traffic && r.server < best)) {
        best = r.server;
        best_traffic = tr;
      }
    }
    if (best.valid()) {
      set_primary(copy.partition, best);
      continue;
    }
    ++data_losses_;
    const auto preference = preference_list(
        HashRing::partition_key(copy.partition), live_count_);
    ServerId home;
    for (const ServerId candidate : preference) {
      if (can_accept(candidate, copy.partition)) {
        home = candidate;
        break;
      }
    }
    if (!home.valid() && !preference.empty()) home = preference.front();
    if (home.valid()) {
      add_replica(copy.partition, home, /*primary=*/true);
      // A reseeded EC stripe starts below k fragments; mark it
      // lost-but-already-counted so fail_servers' scan doesn't
      // double-count (mirrors the engine).
      if (config_.redundancy == RedundancyMode::kErasure) {
        stripe_lost_[copy.partition.value()] = 1;
      }
    }
  }
}

void ReferenceEngine::fail_servers(std::span<const ServerId> servers) {
  std::vector<LostCopy> all_lost;
  for (const ServerId s : servers) {
    if (alive_[s.value()] == 0) continue;
    RFH_ASSERT_MSG(live_count_ > 1, "refusing to kill the last live server");
    for (std::uint32_t pv = 0; pv < config_.partitions; ++pv) {
      const PartitionId p{pv};
      if (has_replica(p, s)) {
        const bool was_primary = primary_of(p) == s;
        remove_replica(p, s);
        all_lost.push_back(LostCopy{p, was_primary});
      }
    }
    alive_[s.value()] = 0;
    live_count_ -= 1;
    ring_remove(s);
    rebuild_live_by_dc();
    clear_server_stats(s);
  }
  handle_lost_copies(all_lost);
  if (config_.redundancy == RedundancyMode::kErasure) {
    // Stripe-loss scan: fewer than k live fragments means the partition
    // cannot be reconstructed — a data loss even though copies survive.
    for (const LostCopy& copy : all_lost) {
      const PartitionId p = copy.partition;
      if (stripe_lost_[p.value()] != 0) continue;
      const auto alive_fragments =
          static_cast<std::uint32_t>(replicas_[p.value()].size());
      if (alive_fragments == 0 || alive_fragments >= config_.ec_k) continue;
      stripe_lost_[p.value()] = 1;
      ++data_losses_;
    }
  }
}

void ReferenceEngine::recover_servers(std::span<const ServerId> servers) {
  for (const ServerId s : servers) {
    if (alive_[s.value()] != 0) continue;
    alive_[s.value()] = 1;
    live_count_ += 1;
    ring_add(s);
    rebuild_live_by_dc();
  }
}

std::vector<Link> ReferenceEngine::active_links() const {
  std::vector<Link> links;
  for (const Link& link : world_.links) {
    const bool disabled =
        std::find(disabled_links_.begin(), disabled_links_.end(),
                  link_key(link.a, link.b)) != disabled_links_.end();
    if (!disabled) links.push_back(link);
  }
  return links;
}

void ReferenceEngine::rebuild_network() {
  graph_ = std::make_unique<DcGraph>(world_.topology.datacenter_count(),
                                     active_links());
  RFH_ASSERT_MSG(graph_->connected(),
                 "link failure would partition the network");
  paths_ = std::make_unique<ShortestPaths>(*graph_);
}

void ReferenceEngine::fail_link(DatacenterId a, DatacenterId b) {
  RFH_ASSERT(a != b);
  const auto entry = link_key(a, b);
  if (std::find(disabled_links_.begin(), disabled_links_.end(), entry) !=
      disabled_links_.end()) {
    return;
  }
  disabled_links_.push_back(entry);
  rebuild_network();
}

void ReferenceEngine::restore_link(DatacenterId a, DatacenterId b) {
  const auto entry = link_key(a, b);
  const auto it =
      std::find(disabled_links_.begin(), disabled_links_.end(), entry);
  if (it == disabled_links_.end()) return;
  disabled_links_.erase(it);
  rebuild_network();
}

// --- per-epoch phases ------------------------------------------------------

void ReferenceEngine::compute_route(PartitionId partition,
                                    DatacenterId requester, ServerId holder,
                                    RefRoute& route) const {
  const DatacenterId holder_dc = world_.topology.server(holder).datacenter;
  const std::vector<DatacenterId> dc_path =
      paths_->path(requester, holder_dc);

  route.stages.clear();
  std::uint32_t hops = 1;  // client -> requester-DC relay
  double latency = kHopLatencyMs;
  for (const DatacenterId dc : dc_path) {
    latency = kHopLatencyMs * hops +
              paths_->distance_km(requester, dc) / kFibreKmPerMs;
    const std::vector<ServerId>& live = live_by_dc_[dc.value()];
    if (live.empty()) {
      ++hops;
      continue;
    }
    const ServerId relay =
        dc == holder_dc ? holder : Router::relay_for(partition, dc, live);
    route.stages.push_back(RouteStage{dc, relay, hops, latency});
    ++hops;
  }
  route.total_hops = hops;
  route.total_latency_ms = latency + kHopLatencyMs;
}

void ReferenceEngine::propagate(const QueryBatch& batch) {
  std::fill(e_node_traffic_.begin(), e_node_traffic_.end(), 0.0);
  std::fill(e_served_.begin(), e_served_.end(), 0.0);
  std::fill(e_partition_queries_.begin(), e_partition_queries_.end(), 0.0);
  std::fill(e_unserved_.begin(), e_unserved_.end(), 0.0);
  std::fill(e_server_work_.begin(), e_server_work_.end(), 0.0);
  e_total_queries_ = 0.0;
  e_routed_queries_ = 0.0;
  e_path_hops_weighted_ = 0.0;

  RefRoute route;
  for (const QueryFlow& flow : batch) {
    e_total_queries_ += flow.queries;
    e_partition_queries_[flow.partition.value()] += flow.queries;

    const ServerId holder = primary_of(flow.partition);
    if (!holder.valid()) {
      e_unserved_[flow.partition.value()] += flow.queries;
      continue;
    }

    // k-of-n reconstruction (EC mode): one logical query costs k
    // fragment-reads; below k live fragments nothing can be served.
    // kf is exactly 1.0 in replica mode (every scale is an FP no-op).
    const double kf = static_cast<double>(config_.reconstruction_threshold());
    if (kf > 1.0 &&
        replicas_[flow.partition.value()].size() < config_.ec_k) {
      e_unserved_[flow.partition.value()] += flow.queries;
      continue;
    }

    compute_route(flow.partition, flow.requester, holder, route);
    double residual = flow.queries * kf;
    for (const RouteStage& stage : route.stages) {
      if (residual <= 0.0) break;
      e_node_traffic_[traffic_index(flow.partition, stage.relay)] += residual;
      e_server_work_[stage.relay.value()] += residual;

      for (const ServerId host : hosts_in_dc(flow.partition, stage.dc)) {
        if (residual <= 0.0) break;
        const double cap =
            world_.topology.server(host).spec.per_replica_capacity;
        const double already = e_served_[traffic_index(flow.partition, host)];
        const double take = std::min(residual, std::max(0.0, cap - already));
        if (take <= 0.0) continue;
        e_served_[traffic_index(flow.partition, host)] += take;
        if (host != stage.relay) {
          e_node_traffic_[traffic_index(flow.partition, host)] += take;
          e_server_work_[host.value()] += take;
        }
        e_routed_queries_ += take / kf;
        e_path_hops_weighted_ +=
            take / kf * static_cast<double>(stage.hops_at_entry);
        residual -= take;
      }
    }
    if (residual > 0.0) {
      e_unserved_[flow.partition.value()] += residual / kf;
      e_routed_queries_ += residual / kf;
      e_path_hops_weighted_ +=
          residual / kf * static_cast<double>(route.total_hops);
    }
  }
}

void ReferenceEngine::update_stats() {
  // Direct transcription of Eqs. 9-11 with the same orientation handling
  // and first-epoch initialization as sim/stats.cpp.
  const double alpha_eff =
      config_.alpha_weights_history ? config_.alpha : 1.0 - config_.alpha;
  const double a = stats_initialized_ ? alpha_eff : 0.0;
  const double b = 1.0 - a;
  stats_initialized_ = true;

  const std::size_t servers = world_.topology.server_count();
  const std::size_t datacenters = world_.topology.datacenter_count();
  for (std::uint32_t pv = 0; pv < config_.partitions; ++pv) {
    const double q_avg =
        e_partition_queries_[pv] / static_cast<double>(datacenters);
    avg_query_[pv] = a * avg_query_[pv] + b * q_avg;

    for (std::uint32_t s = 0; s < servers; ++s) {
      // A frozen (stalestats) server keeps its stale value; the engine's
      // sparse fold skips its cells the same way.
      if (stats_frozen_[s] != 0) continue;
      double& v = node_traffic_[pv * servers + s];
      v = a * v + b * e_node_traffic_[pv * servers + s];
    }
  }
  for (std::uint32_t s = 0; s < servers; ++s) {
    if (stats_frozen_[s] != 0) continue;
    server_arrival_[s] = a * server_arrival_[s] + b * e_server_work_[s];
  }
}

// --- decision tree ---------------------------------------------------------

std::vector<ReferenceEngine::HubCandidate> ReferenceEngine::hub_candidates(
    PartitionId p, double gamma_threshold, bool require_gamma) const {
  std::vector<HubCandidate> out;
  for (const Server& server : world_.topology.servers()) {
    if (alive_[server.id.value()] == 0) continue;
    if (has_replica(p, server.id)) continue;
    const double tr = node_traffic_[traffic_index(p, server.id)];
    if (tr <= 0.0) continue;
    if (require_gamma && tr < gamma_threshold) continue;
    out.push_back(HubCandidate{server.id, tr});
  }
  std::sort(out.begin(), out.end(),
            [](const HubCandidate& a, const HubCandidate& b) {
              if (a.traffic != b.traffic) return a.traffic > b.traffic;
              return a.server < b.server;
            });
  return out;
}

ServerId ReferenceEngine::select_in_dc(DatacenterId dc, PartitionId p) const {
  // Eq. 18: the feasible server with the lowest Erlang-B blocking
  // probability (ties break to the first in live order, i.e. lower id).
  ServerId best;
  double best_bp = 0.0;
  for (const ServerId s : live_by_dc_[dc.value()]) {
    if (!can_accept(s, p)) continue;
    const ServerSpec& spec = world_.topology.server(s).spec;
    const double service_rate = std::max(spec.per_replica_capacity, 1e-9);
    const double offered = server_arrival_[s.value()] / service_rate;
    const double bp = erlang_b(offered, spec.service_channels);
    if (!best.valid() || bp < best_bp) {
      best = s;
      best_bp = bp;
    }
  }
  return best;
}

ServerId ReferenceEngine::pick_target_hub(
    PartitionId p, const std::vector<HubCandidate>& hubs) const {
  for (const HubCandidate& hub : hubs) {
    const DatacenterId dc = world_.topology.server(hub.server).datacenter;
    const ServerId s = select_in_dc(dc, p);
    if (s.valid()) return s;
  }
  return ServerId::invalid();
}

ServerId ReferenceEngine::pick_target_near_owner(PartitionId p) const {
  const ServerId primary = primary_of(p);
  const DatacenterId home = world_.topology.server(primary).datacenter;
  std::vector<DatacenterId> dcs;
  for (const Datacenter& dc : world_.topology.datacenters()) {
    if (dc.id != home) dcs.push_back(dc.id);
  }
  std::sort(dcs.begin(), dcs.end(), [&](DatacenterId a, DatacenterId b) {
    return world_.topology.distance_km(home, a) <
           world_.topology.distance_km(home, b);
  });
  for (const DatacenterId dc : dcs) {
    const ServerId s = select_in_dc(dc, p);
    if (s.valid()) return s;
  }
  return select_in_dc(home, p);
}

bool ReferenceEngine::holder_overloaded(PartitionId p, ServerId primary) const {
  // Eq. 12 with the engine's physical floor and demand clamp
  // (sim/policy.h holder_overloaded).
  const double q_bar = avg_query_[p.value()];
  const double total =
      q_bar * static_cast<double>(world_.topology.datacenter_count());
  const double threshold = std::min(config_.beta * q_bar, 0.9 * total);
  const double tr = node_traffic_[traffic_index(p, primary)];
  if (q_bar <= 0.0) return false;
  const double capacity =
      world_.topology.server(primary).spec.per_replica_capacity;
  return tr >= threshold && tr > capacity;
}

void ReferenceEngine::decide(std::vector<ProposedReplicate>& replications,
                             std::vector<ProposedMigrate>& migrations,
                             std::vector<ProposedSuicide>& suicides) {
  // Eq. 14 floor: min_replicas in replica mode, the k-of-n binomial-tail
  // fragment floor in EC mode.
  const std::uint32_t rmin = config_.availability_floor();

  for (std::uint32_t pv = 0; pv < config_.partitions; ++pv) {
    const PartitionId p{pv};
    const ServerId primary = primary_of(p);
    if (!primary.valid()) continue;

    const double q_bar = avg_query_[pv];
    const auto r = static_cast<std::uint32_t>(replicas_[pv].size());

    // --- 1. Availability floor (Eq. 14) --------------------------------
    if (r < rmin) {
      const auto hubs = hub_candidates(p, /*gamma_threshold=*/0.0,
                                       /*require_gamma=*/false);
      ServerId target = pick_target_hub(p, hubs);
      if (!target.valid()) target = pick_target_near_owner(p);
      if (target.valid()) {
        replications.push_back(
            ProposedReplicate{p, target, DecisionRule::kAvailabilityFloor});
      }
      continue;
    }

    // --- 2. Overload relief (Eqs. 12-13, 16) ---------------------------
    if (holder_overloaded(p, primary)) {
      ++overload_streak_[pv];
    } else {
      overload_streak_[pv] = 0;
    }
    const bool overloaded = overload_streak_[pv] >= kOverloadStreakEpochs;
    bool replicated_this_epoch = false;

    if (overloaded && r < config_.max_replicas_per_partition) {
      auto hubs = hub_candidates(p, config_.gamma * q_bar,
                                 /*require_gamma=*/true);
      bool forced = false;
      if (hubs.empty()) {
        hubs = hub_candidates(p, 0.0, /*require_gamma=*/false);
        forced = true;
      }
      if (hubs.empty()) {
        const DatacenterId home = world_.topology.server(primary).datacenter;
        const ServerId local = select_in_dc(home, p);
        if (local.valid()) {
          replications.push_back(
              ProposedReplicate{p, local, DecisionRule::kOverloadLocal});
          replicated_this_epoch = true;
        }
      }
      if (!hubs.empty()) {
        if (hubs.size() > kTopHubs) hubs.resize(kTopHubs);
        const ServerId target = pick_target_hub(p, hubs);
        if (target.valid()) {
          ServerId victim;
          double victim_traffic = 0.0;
          const auto in_top_dcs = [&](DatacenterId dc) {
            return std::any_of(hubs.begin(), hubs.end(),
                               [&](const HubCandidate& h) {
                                 return world_.topology.server(h.server)
                                            .datacenter == dc;
                               });
          };
          for (const Replica& replica : replicas_[pv]) {
            if (replica.primary) continue;
            const DatacenterId dc =
                world_.topology.server(replica.server).datacenter;
            if (in_top_dcs(dc)) continue;
            const double tr = node_traffic_[traffic_index(p, replica.server)];
            if (tr > std::max(config_.delta * q_bar,
                              0.3 * hubs.front().traffic)) {
              continue;
            }
            if (!victim.valid() || tr < victim_traffic) {
              victim = replica.server;
              victim_traffic = tr;
            }
          }
          // Eq. 17: the partition's dense tr_bar row, summed in order.
          const std::size_t servers = world_.topology.server_count();
          double tr_sum = 0.0;
          for (std::size_t s = 0; s < servers; ++s) {
            tr_sum += node_traffic_[pv * servers + s];
          }
          const double mean_tr =
              live_count_ == 0 ? 0.0
                               : tr_sum / static_cast<double>(live_count_);
          if (victim.valid() &&
              hubs.front().traffic - victim_traffic >= config_.mu * mean_tr) {
            migrations.push_back(ProposedMigrate{
                p, victim, target, DecisionRule::kMigrationBenefit});
          } else {
            replications.push_back(ProposedReplicate{
                p, target,
                forced ? DecisionRule::kOverloadForced
                       : DecisionRule::kOverloadHub});
          }
          replicated_this_epoch = true;
        }
      }
    }

    // --- 3. Suicide (Eq. 15) -------------------------------------------
    if (q_bar > 0.0) {
      std::uint32_t remaining = r;
      std::uint32_t done = 0;
      for (const Replica& replica : replicas_[pv]) {
        if (replica.primary) continue;
        const std::uint64_t key =
            (std::uint64_t{pv} << 32) | replica.server.value();
        const double tr = node_traffic_[traffic_index(p, replica.server)];
        if (tr > config_.delta * q_bar) {
          cold_streak_.erase(key);
          continue;
        }
        const std::uint32_t streak = ++cold_streak_[key];
        if (replicated_this_epoch || done >= kMaxSuicidesPerEpoch ||
            remaining <= rmin || streak < kColdStreakEpochs) {
          continue;
        }
        suicides.push_back(
            ProposedSuicide{p, replica.server, DecisionRule::kSuicideCold});
        cold_streak_.erase(key);
        --remaining;
        ++done;
      }
    }
  }
}

// --- action application ----------------------------------------------------

double ReferenceEngine::transfer_cost(DatacenterId from, DatacenterId to,
                                      Bytes bytes,
                                      BytesPerEpoch bandwidth) const {
  const double d = std::max(world_.topology.distance_km(from, to), 1.0);
  const double s_over_b =
      static_cast<double>(bytes) / static_cast<double>(bandwidth);
  return d * config_.failure_rate * s_over_b;
}

void ReferenceEngine::apply(
    const std::vector<ProposedReplicate>& replications,
    const std::vector<ProposedMigrate>& migrations,
    const std::vector<ProposedSuicide>& suicides, RefEpochReport& report) {
  std::fill(replication_bytes_.begin(), replication_bytes_.end(), Bytes{0});
  std::fill(migration_bytes_.begin(), migration_bytes_.end(), Bytes{0});

  const auto drop = [&](DropReason reason) {
    ++report.dropped_actions;
    ++report.dropped_by_reason[static_cast<std::size_t>(reason)];
  };
  const auto classify = [&](ServerId target, PartitionId p) {
    if (alive_[target.value()] == 0) return DropReason::kDeadTarget;
    if (has_replica(p, target)) return DropReason::kInvalid;
    const ServerSpec& spec = world_.topology.server(target).spec;
    if (copies_on_[target.value()] >= spec.max_vnodes) {
      return DropReason::kNodeCap;
    }
    if (config_.redundancy == RedundancyMode::kErasure) {
      const DatacenterId dc = world_.topology.server(target).datacenter;
      std::uint32_t in_dc = 0;
      for (const Replica& r : replicas_[p.value()]) {
        if (world_.topology.server(r.server).datacenter == dc) ++in_dc;
      }
      if (in_dc >= config_.ec_m) return DropReason::kZoneDiversity;
    }
    const auto projected =
        static_cast<double>(storage_used_[target.value()] +
                            config_.unit_size());
    if (projected >
        config_.storage_limit * static_cast<double>(spec.storage_capacity)) {
      return DropReason::kStorageCap;  // the phi limit (Eq. 19)
    }
    RFH_ASSERT_MSG(false, "can_accept rejected for a reason classify missed");
    return DropReason::kUnknown;
  };

  for (const ProposedReplicate& a : replications) {
    const ServerId src = primary_of(a.partition);
    if (!src.valid() || !a.target.valid()) {
      drop(!a.target.valid() ? DropReason::kDeadTarget : DropReason::kInvalid);
      continue;
    }
    // A floor repair refused at the node cap or the copy cap starves.
    const bool repair = a.rule == DecisionRule::kAvailabilityFloor;
    if (!can_accept(a.target, a.partition)) {
      const DropReason reason = classify(a.target, a.partition);
      if (repair && reason == DropReason::kNodeCap) ++report.repairs_starved;
      drop(reason);
      continue;
    }
    if (static_cast<std::uint32_t>(replicas_[a.partition.value()].size()) >=
        config_.max_replicas_per_partition) {
      if (repair) ++report.repairs_starved;
      drop(DropReason::kNodeCap);
      continue;
    }
    const ServerSpec& spec = world_.topology.server(src).spec;
    if (replication_bytes_[src.value()] + config_.unit_size() >
        spec.replication_bandwidth) {
      drop(DropReason::kBandwidth);
      continue;
    }
    replication_bytes_[src.value()] += config_.unit_size();
    add_replica(a.partition, a.target);
    const double cost = transfer_cost(
        world_.topology.server(src).datacenter,
        world_.topology.server(a.target).datacenter, config_.unit_size(),
        spec.replication_bandwidth);
    report.replications += 1;
    report.replication_cost += cost;
    report.applied.push_back(RefAppliedAction{
        ActionKind::kReplicate, a.partition, src, a.target, a.rule});
    if (config_.redundancy == RedundancyMode::kErasure &&
        stripe_lost_[a.partition.value()] != 0 &&
        replicas_[a.partition.value()].size() >= config_.ec_k) {
      stripe_lost_[a.partition.value()] = 0;
    }
  }

  for (const ProposedMigrate& a : migrations) {
    if (!a.from.valid() || !a.to.valid() ||
        !has_replica(a.partition, a.from) ||
        primary_of(a.partition) == a.from) {
      drop(DropReason::kInvalid);
      continue;
    }
    if (!can_accept(a.to, a.partition)) {
      drop(classify(a.to, a.partition));
      continue;
    }
    const ServerSpec& spec = world_.topology.server(a.from).spec;
    if (migration_bytes_[a.from.value()] + config_.unit_size() >
        spec.migration_bandwidth) {
      drop(DropReason::kBandwidth);
      continue;
    }
    migration_bytes_[a.from.value()] += config_.unit_size();
    remove_replica(a.partition, a.from);
    add_replica(a.partition, a.to);
    const double cost = transfer_cost(
        world_.topology.server(a.from).datacenter,
        world_.topology.server(a.to).datacenter, config_.unit_size(),
        spec.migration_bandwidth);
    report.migrations += 1;
    report.migration_cost += cost;
    report.applied.push_back(RefAppliedAction{
        ActionKind::kMigrate, a.partition, a.from, a.to, a.rule});
  }

  for (const ProposedSuicide& a : suicides) {
    if (!a.server.valid() || !has_replica(a.partition, a.server) ||
        primary_of(a.partition) == a.server ||
        (config_.redundancy == RedundancyMode::kErasure &&
         replicas_[a.partition.value()].size() <= config_.ec_k)) {
      // EC guard: never suicide a stripe down to (or below) k fragments.
      drop(DropReason::kInvalid);
      continue;
    }
    remove_replica(a.partition, a.server);
    report.suicides += 1;
    report.applied.push_back(RefAppliedAction{ActionKind::kSuicide,
                                              a.partition, a.server,
                                              ServerId::invalid(), a.rule});
  }
}

RefEpochReport ReferenceEngine::step() {
  RefEpochReport report;
  report.epoch = epoch_;

  QueryBatch batch = workload_->generate(epoch_, rng_workload_);
  if (traffic_multiplier_ != 1.0) {
    for (QueryFlow& flow : batch) flow.queries *= traffic_multiplier_;
  }
  propagate(batch);
  update_stats();

  report.total_queries = e_total_queries_;
  double unserved = 0.0;
  for (std::uint32_t pv = 0; pv < config_.partitions; ++pv) {
    unserved += e_unserved_[pv];
  }
  report.unserved_queries = unserved;
  report.mean_path_length = e_routed_queries_ > 0.0
                                ? e_path_hops_weighted_ / e_routed_queries_
                                : 0.0;

  std::vector<ProposedReplicate> replications;
  std::vector<ProposedMigrate> migrations;
  std::vector<ProposedSuicide> suicides;
  decide(replications, migrations, suicides);
  apply(replications, migrations, suicides, report);

  report.total_replicas = total_replicas_;
  ++epoch_;
  return report;
}

}  // namespace rfh
