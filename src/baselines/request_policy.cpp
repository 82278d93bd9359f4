#include "baselines/request_policy.h"

#include <algorithm>
#include <span>

#include "core/selection.h"

namespace rfh {

Actions RequestOrientedPolicy::decide(const PolicyContext& ctx) {
  Actions actions;
  const std::uint32_t rmin = ctx.config.availability_floor();
  streaks_.resize(std::size_t{ctx.config.partitions} * top_requesters_);
  ranked_.reserve(top_requesters_ + 1);
  vacant_.reserve(top_requesters_);
  const auto hotter = [](const Requester& a, const Requester& b) {
    if (a.queries != b.queries) return a.queries > b.queries;
    return a.dc < b.dc;
  };

  for (std::uint32_t pv = 0; pv < ctx.config.partitions; ++pv) {
    const PartitionId p{pv};
    const ServerId primary = ctx.cluster.primary_of(p);
    if (!primary.valid()) continue;

    // Top requester datacenters by smoothed query volume, hottest first.
    // A datacenter issuing (essentially) no queries is never a placement
    // candidate — the scheme replicates "where most of the queries come
    // from".
    ranked_.clear();
    for (const Datacenter& dc : ctx.topology.datacenters()) {
      const Requester candidate{dc.id, ctx.stats.requester_queries(p, dc.id)};
      if (!(candidate.queries > 1e-6)) continue;
      ranked_.insert(
          std::upper_bound(ranked_.begin(), ranked_.end(), candidate, hotter),
          candidate);
      if (ranked_.size() > top_requesters_) ranked_.pop_back();
    }
    if (ranked_.empty()) continue;
    const auto in_top = [&](DatacenterId dc) {
      return std::any_of(ranked_.begin(), ranked_.end(),
                         [dc](const Requester& r) { return r.dc == dc; });
    };

    // Track how long each datacenter has been a member of the top set: a
    // datacenter that left it frees its slot, a newcomer takes a free one.
    const std::span<Streak> row(
        streaks_.data() + std::size_t{pv} * top_requesters_, top_requesters_);
    const auto slot_of = [row](DatacenterId dc) {
      return std::find_if(row.begin(), row.end(),
                           [dc](const Streak& s) { return s.dc == dc; });
    };
    for (Streak& s : row) {
      if (!in_top(s.dc)) s = Streak{};
    }
    for (const Requester& r : ranked_) {
      auto slot = slot_of(r.dc);
      if (slot == row.end()) {
        slot = slot_of(DatacenterId::invalid());
        *slot = Streak{r.dc, 0};
      }
      ++slot->epochs;
    }

    // Vacant slots: top requester datacenters currently without a copy.
    vacant_.clear();
    for (const Requester& r : ranked_) {
      if (ctx.cluster.copies_in_dc(p, r.dc) == 0) vacant_.push_back(r);
    }
    if (vacant_.empty()) continue;  // the scheme's structural cap

    const std::uint32_t r = ctx.cluster.replica_count(p);
    const bool overloaded = holder_overloaded(ctx, p, primary);

    // Stale replica: a copy sitting outside the current top requesters
    // (the one whose datacenter issues the fewest queries goes first).
    ServerId stale;
    double stale_queries = 0.0;
    for (const Replica& replica : ctx.cluster.replicas_of(p)) {
      if (replica.primary) continue;
      const DatacenterId dc = ctx.topology.server(replica.server).datacenter;
      if (in_top(dc)) continue;  // already serving a top requester
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
    while (!vacant_.empty()) {
      const std::size_t pick =
          static_cast<std::size_t>(ctx.rng.uniform(vacant_.size()));
      const Requester newcomer = vacant_[pick];
      const ServerId target =
          select_server_random(ctx, newcomer.dc, p, ctx.rng);
      if (!target.valid()) {
        vacant_.erase(vacant_.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      // Hysteresis: a migration is triggered by a datacenter *joining*
      // the top set — a membership that has persisted a few epochs, not a
      // one-epoch sampling blip — and the newcomer must be clearly hotter
      // than the replica it displaces.
      const bool worth_moving =
          stale.valid() && slot_of(newcomer.dc)->epochs >= 3 &&
          newcomer.queries > 1.5 * stale_queries + 1.0;
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
