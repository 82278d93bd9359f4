#include "baselines/owner_policy.h"

#include <algorithm>
#include <vector>

namespace rfh {

namespace {

/// First feasible server in `dc`, preferring racks that do not already
/// hold a copy of p (rack diversity: "it would like to choose a rack
/// different from another replica").
ServerId pick_in_dc(const PolicyContext& ctx, DatacenterId dc, PartitionId p) {
  std::vector<RackId> used_racks;
  for (const Replica& r : ctx.cluster.replicas_of(p)) {
    used_racks.push_back(ctx.topology.server(r.server).rack);
  }
  ServerId fallback;
  for (const ServerId s : ctx.cluster.live_by_dc()[dc.value()]) {
    if (!ctx.cluster.can_accept(s, p)) continue;
    const RackId rack = ctx.topology.server(s).rack;
    const bool rack_used =
        std::find(used_racks.begin(), used_racks.end(), rack) !=
        used_racks.end();
    if (!rack_used) return s;
    if (!fallback.valid()) fallback = s;
  }
  return fallback;
}

}  // namespace

ServerId OwnerOrientedPolicy::best_target(const PolicyContext& ctx,
                                          PartitionId p) {
  const ServerId primary = ctx.cluster.primary_of(p);
  const DatacenterId home = ctx.topology.server(primary).datacenter;

  // Candidate datacenters by (no copy yet first, then distance from the
  // owner): a copy in a fresh datacenter maximizes availability (level 5
  // against every existing copy), and among fresh datacenters the Eq. 1
  // cost — proportional to d — prefers the closest: "replicas will be
  // placed on B and C, which are in the same country of A, or ... on D,
  // which is in the same continent".
  std::vector<DatacenterId> dcs;
  for (const Datacenter& dc : ctx.topology.datacenters()) {
    if (dc.id != home) dcs.push_back(dc.id);
  }
  auto has_copy_in = [&](DatacenterId dc) {
    return ctx.cluster.copies_in_dc(p, dc) > 0;
  };
  std::sort(dcs.begin(), dcs.end(), [&](DatacenterId a, DatacenterId b) {
    const bool copy_a = has_copy_in(a);
    const bool copy_b = has_copy_in(b);
    if (copy_a != copy_b) return !copy_a;  // fresh datacenters first
    return ctx.topology.distance_km(home, a) <
           ctx.topology.distance_km(home, b);
  });
  for (const DatacenterId dc : dcs) {
    const ServerId s = pick_in_dc(ctx, dc, p);
    if (s.valid()) return s;
  }
  // Everything remote is saturated: fall back to the home datacenter
  // (availability level 4/3, near-zero cost).
  return pick_in_dc(ctx, home, p);
}

Actions OwnerOrientedPolicy::decide(const PolicyContext& ctx) {
  Actions actions;
  const std::uint32_t rmin = ctx.config.availability_floor();

  const bool membership_changed =
      seen_first_epoch_ && ctx.cluster.live_server_count() != last_live_count_;
  last_live_count_ = ctx.cluster.live_server_count();
  seen_first_epoch_ = true;

  for (std::uint32_t pv = 0; pv < ctx.config.partitions; ++pv) {
    const PartitionId p{pv};
    const ServerId primary = ctx.cluster.primary_of(p);
    if (!primary.valid()) continue;

    const std::uint32_t r = ctx.cluster.replica_count(p);
    const bool overloaded = holder_overloaded(ctx, p, primary);

    if (r < rmin ||
        (overloaded && r < ctx.config.max_replicas_per_partition)) {
      const ServerId target = best_target(ctx, p);
      if (target.valid()) {
        actions.replications.push_back(ReplicateAction{p, target, {}});
      }
      continue;
    }

    // Migration: only re-examined when membership changed — a higher
    // availability-versus-cost placement can only appear then.
    if (!membership_changed) continue;
    const DatacenterId home = ctx.topology.server(primary).datacenter;
    for (const Replica& replica : ctx.cluster.replicas_of(p)) {
      if (replica.primary) continue;
      const DatacenterId dc = ctx.topology.server(replica.server).datacenter;
      if (dc == home) continue;  // already cheap
      // A strictly closer datacenter with no copy yet?
      const double current_d = ctx.topology.distance_km(home, dc);
      for (const Datacenter& cand : ctx.topology.datacenters()) {
        if (cand.id == home || cand.id == dc) continue;
        if (ctx.cluster.copies_in_dc(p, cand.id) > 0) continue;
        if (ctx.topology.distance_km(home, cand.id) >= current_d) continue;
        const ServerId target = pick_in_dc(ctx, cand.id, p);
        if (target.valid()) {
          actions.migrations.push_back(
              MigrateAction{p, replica.server, target, {}});
          break;
        }
      }
      break;  // at most one migration per partition per epoch
    }
  }
  return actions;
}

}  // namespace rfh
