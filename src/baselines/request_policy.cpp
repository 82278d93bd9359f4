#include "baselines/request_policy.h"

#include <algorithm>
#include <vector>

#include "core/selection.h"

namespace rfh {

Actions RequestOrientedPolicy::decide(const PolicyContext& ctx) {
  Actions actions;
  const std::uint32_t rmin = ctx.config.availability_floor();

  std::vector<DatacenterId> all_dcs;
  for (const Datacenter& dc : ctx.topology.datacenters()) {
    all_dcs.push_back(dc.id);
  }

  for (std::uint32_t pv = 0; pv < ctx.config.partitions; ++pv) {
    const PartitionId p{pv};
    const ServerId primary = ctx.cluster.primary_of(p);
    if (!primary.valid()) continue;

    // Top requester datacenters by smoothed query volume. A datacenter
    // issuing (essentially) no queries is never a placement candidate —
    // the scheme replicates "where most of the queries come from".
    std::vector<DatacenterId> ranked;
    for (const DatacenterId dc : all_dcs) {
      if (ctx.stats.requester_queries(p, dc) > 1e-6) ranked.push_back(dc);
    }
    std::sort(ranked.begin(), ranked.end(),
              [&](DatacenterId a, DatacenterId b) {
                const double qa = ctx.stats.requester_queries(p, a);
                const double qb = ctx.stats.requester_queries(p, b);
                if (qa != qb) return qa > qb;
                return a < b;
              });
    if (ranked.size() > top_requesters_) ranked.resize(top_requesters_);
    if (ranked.empty()) continue;

    // Track how long each datacenter has been a member of the top set.
    for (const DatacenterId dc : all_dcs) {
      const std::uint64_t key = (std::uint64_t{pv} << 32) | dc.value();
      if (std::find(ranked.begin(), ranked.end(), dc) != ranked.end()) {
        ++membership_streak_[key];
      } else {
        membership_streak_.erase(key);
      }
    }
    auto streak = [&](DatacenterId dc) {
      const auto it =
          membership_streak_.find((std::uint64_t{pv} << 32) | dc.value());
      return it == membership_streak_.end() ? 0u : it->second;
    };

    auto has_copy_in = [&](DatacenterId dc) {
      return !ctx.cluster.hosts_in_dc(p, dc).empty();
    };

    const std::uint32_t r = ctx.cluster.replica_count(p);
    const bool overloaded = holder_overloaded(ctx, p, primary);

    // Vacant slots: top requester datacenters currently without a copy.
    std::vector<DatacenterId> vacant;
    for (const DatacenterId dc : ranked) {
      if (!has_copy_in(dc)) vacant.push_back(dc);
    }
    if (vacant.empty()) continue;  // the scheme's structural cap

    // Stale replica: a copy sitting outside the current top requesters
    // (the one whose datacenter issues the fewest queries goes first).
    ServerId stale;
    double stale_queries = 0.0;
    for (const Replica& replica : ctx.cluster.replicas_of(p)) {
      if (replica.primary) continue;
      const DatacenterId dc = ctx.topology.server(replica.server).datacenter;
      if (std::find(ranked.begin(), ranked.end(), dc) != ranked.end()) {
        continue;  // already serving a top requester
      }
      const double q = ctx.stats.requester_queries(p, dc);
      if (!stale.valid() || q < stale_queries) {
        stale = replica.server;
        stale_queries = q;
      }
    }

    // "The migration process is started when another node without any
    // replica joins in the list of the top 3": a stale copy is pulled to
    // the vacant slot. Only when there is nothing left to recycle does
    // the scheme replicate a fresh copy (randomly among the vacant top
    // datacenters, random server inside — the paper's random choosing).
    while (!vacant.empty()) {
      const std::size_t pick =
          static_cast<std::size_t>(ctx.rng.uniform(vacant.size()));
      const ServerId target =
          select_server_random(ctx, vacant[pick], p, ctx.rng);
      if (!target.valid()) {
        vacant.erase(vacant.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      // Hysteresis: a migration is triggered by a datacenter *joining*
      // the top set — a membership that has persisted a few epochs, not a
      // one-epoch sampling blip — and the newcomer must be clearly hotter
      // than the replica it displaces.
      const bool worth_moving =
          stale.valid() && streak(vacant[pick]) >= 3 &&
          ctx.stats.requester_queries(p, vacant[pick]) >
              1.5 * stale_queries + 1.0;
      if (worth_moving &&
          actions.migrations.size() < max_migrations_per_epoch_) {
        actions.migrations.push_back(MigrateAction{p, stale, target, {}});
      } else if (!stale.valid() &&
                 (r < rmin ||
                  (overloaded &&
                   r < ctx.config.max_replicas_per_partition))) {
        // Nothing to recycle: grow a fresh copy.
        actions.replications.push_back(ReplicateAction{p, target, {}});
      }
      break;
    }
  }
  return actions;
}

}  // namespace rfh
