#include "core/rfh_policy.h"

#include <algorithm>

#include "common/availability.h"
#include "core/selection.h"
#include "exec/parallel_for.h"
#include "telemetry/registry.h"

namespace rfh {

namespace {

/// Explanation skeleton shared by every rule: the smoothed demand and the
/// Table I coefficients in force, plus the copy census. The caller fills
/// rule/observed/threshold for the inequality that actually fired.
DecisionExplanation base_explanation(const PolicyContext& ctx, double q_bar,
                                     std::uint32_t replica_count,
                                     std::uint32_t r_min) {
  DecisionExplanation why;
  why.q_bar = q_bar;
  why.beta = ctx.config.beta;
  why.gamma = ctx.config.gamma;
  why.delta = ctx.config.delta;
  why.mu = ctx.config.mu;
  why.replica_count = replica_count;
  why.r_min = r_min;
  return why;
}

}  // namespace

std::vector<RfhPolicy::HubCandidate> RfhPolicy::hub_candidates(
    const PolicyContext& ctx, PartitionId p, double gamma_threshold,
    bool require_gamma) const {
  std::vector<HubCandidate> out;
  // Only servers with tr > 0 can qualify, and those are exactly the
  // partition's nonzero tr_bar cells — walking them (ascending server id,
  // like the full-axis scan they replace) instead of all S servers makes
  // the decide pass independent of cluster size.
  for (const StatCell& cell : ctx.stats.node_cells(p)) {
    const ServerId sid{cell.server};
    const double tr = cell.ewma;
    if (tr <= 0.0) continue;
    if (!ctx.cluster.alive(sid)) continue;
    if (ctx.cluster.has_replica(p, sid)) continue;
    if (require_gamma && tr < gamma_threshold) continue;
    out.push_back(HubCandidate{sid, tr});
  }
  std::sort(out.begin(), out.end(),
            [](const HubCandidate& a, const HubCandidate& b) {
              if (a.traffic != b.traffic) return a.traffic > b.traffic;
              return a.server < b.server;
            });
  return out;
}

ServerId RfhPolicy::select_in_dc(const PolicyContext& ctx, DatacenterId dc,
                                 PartitionId p) const {
  return options_.erlang_b_selection ? select_server_erlang_b(ctx, dc, p)
                                     : select_server_first_fit(ctx, dc, p);
}

ServerId RfhPolicy::pick_target(const PolicyContext& ctx, PartitionId p,
                                const std::vector<HubCandidate>& hubs,
                                Options::Placement placement) const {
  using Placement = Options::Placement;
  switch (placement) {
    case Placement::kTrafficHub: {
      // Walk hubs in traffic order; the hub's datacenter hosts the copy on
      // its lowest-blocking-probability server.
      for (const HubCandidate& hub : hubs) {
        const DatacenterId dc = ctx.topology.server(hub.server).datacenter;
        const ServerId s = select_in_dc(ctx, dc, p);
        if (s.valid()) return s;
      }
      return ServerId::invalid();
    }
    case Placement::kNearOwner: {
      const ServerId primary = ctx.cluster.primary_of(p);
      const DatacenterId home = ctx.topology.server(primary).datacenter;
      std::vector<DatacenterId> dcs;
      for (const Datacenter& dc : ctx.topology.datacenters()) {
        if (dc.id != home) dcs.push_back(dc.id);
      }
      std::sort(dcs.begin(), dcs.end(),
                [&](DatacenterId a, DatacenterId b) {
                  return ctx.topology.distance_km(home, a) <
                         ctx.topology.distance_km(home, b);
                });
      for (const DatacenterId dc : dcs) {
        const ServerId s = select_in_dc(ctx, dc, p);
        if (s.valid()) return s;
      }
      return select_in_dc(ctx, home, p);
    }
    case Placement::kNearRequester: {
      std::vector<DatacenterId> dcs;
      for (const Datacenter& dc : ctx.topology.datacenters()) {
        dcs.push_back(dc.id);
      }
      std::sort(dcs.begin(), dcs.end(),
                [&](DatacenterId a, DatacenterId b) {
                  return ctx.stats.requester_queries(p, a) >
                         ctx.stats.requester_queries(p, b);
                });
      for (const DatacenterId dc : dcs) {
        const ServerId s = select_in_dc(ctx, dc, p);
        if (s.valid()) return s;
      }
      return ServerId::invalid();
    }
    case Placement::kRandom: {
      const std::size_t n = ctx.topology.datacenter_count();
      const std::size_t start = static_cast<std::size_t>(ctx.rng.uniform(n));
      for (std::size_t i = 0; i < n; ++i) {
        const DatacenterId dc{static_cast<std::uint32_t>((start + i) % n)};
        const ServerId s = select_in_dc(ctx, dc, p);
        if (s.valid()) return s;
      }
      return ServerId::invalid();
    }
  }
  return ServerId::invalid();
}

void RfhPolicy::set_telemetry(MetricRegistry* registry) {
  if (registry == nullptr) {
    decide_calls_ = nullptr;
    proposed_ = {};
    rule_fired_ = {};
    return;
  }
  decide_calls_ = &registry->counter("rfh_policy_decide_calls_total", {},
                                     "Epochs the policy was consulted");
  for (std::size_t k = 0; k < proposed_.size(); ++k) {
    proposed_[k] = &registry->counter(
        "rfh_policy_proposed_total",
        {{"kind", action_kind_name(static_cast<ActionKind>(k))}},
        "Actions proposed before engine validation");
  }
  for (std::size_t r = 0; r < rule_fired_.size(); ++r) {
    rule_fired_[r] = &registry->counter(
        "rfh_policy_rule_fired_total",
        {{"rule", rule_name(static_cast<DecisionRule>(r))}},
        "Decision-tree inequalities that produced an action");
  }
}

void RfhPolicy::count_actions(const Actions& actions) {
  decide_calls_->inc();
  const auto rule_slot = [this](DecisionRule rule) {
    return rule_fired_[static_cast<std::size_t>(rule)];
  };
  proposed_[static_cast<std::size_t>(ActionKind::kReplicate)]->inc(
      static_cast<double>(actions.replications.size()));
  proposed_[static_cast<std::size_t>(ActionKind::kMigrate)]->inc(
      static_cast<double>(actions.migrations.size()));
  proposed_[static_cast<std::size_t>(ActionKind::kSuicide)]->inc(
      static_cast<double>(actions.suicides.size()));
  for (const ReplicateAction& a : actions.replications) {
    rule_slot(a.why.rule)->inc();
  }
  for (const MigrateAction& a : actions.migrations) {
    rule_slot(a.why.rule)->inc();
  }
  for (const SuicideAction& a : actions.suicides) {
    rule_slot(a.why.rule)->inc();
  }
}

Actions RfhPolicy::decide(const PolicyContext& ctx) {
  // Replica mode: Eq. 14's 1 - f^r bound. EC mode: the k-of-n binomial
  // tail, floored at the full k + m stripe.
  const std::uint32_t rmin = ctx.config.availability_floor();
  overload_streak_.resize(ctx.config.partitions, 0);
  if (cold_streak_.size() < ctx.config.partitions) {
    cold_streak_.resize(ctx.config.partitions);
  }

  // The kRandom placement draws from ctx.rng once per decided partition,
  // so its decision sequence *is* the RNG stream order — that ablation
  // stays serial. Every other placement is a pure function of per-
  // partition state, so the scan shards cleanly.
  ThreadPool* pool =
      options_.placement == Options::Placement::kRandom ? nullptr : ctx.pool;

  const std::size_t n = ctx.config.partitions;
  const unsigned shards = shard_count_for(pool, n, /*min_grain=*/64);
  std::vector<Actions> shard_actions(shards);
  parallel_for_shards(
      pool, n, shards, [&](unsigned s, IndexRange range) {
        Actions& out = shard_actions[s];
        for (std::size_t pv = range.begin; pv < range.end; ++pv) {
          decide_partition(ctx, PartitionId{static_cast<std::uint32_t>(pv)},
                           rmin, out);
        }
      });

  // Shard ranges concatenate to the serial partition order, so appending
  // each shard's actions in shard-index order reproduces the serial
  // action list exactly.
  Actions actions = std::move(shard_actions.front());
  for (std::size_t s = 1; s < shard_actions.size(); ++s) {
    Actions& part = shard_actions[s];
    actions.replications.insert(actions.replications.end(),
                                part.replications.begin(),
                                part.replications.end());
    actions.migrations.insert(actions.migrations.end(),
                              part.migrations.begin(), part.migrations.end());
    actions.suicides.insert(actions.suicides.end(), part.suicides.begin(),
                            part.suicides.end());
  }
  if (decide_calls_ != nullptr) count_actions(actions);
  return actions;
}

void RfhPolicy::decide_partition(const PolicyContext& ctx, PartitionId p,
                                 std::uint32_t rmin, Actions& actions) {
  const std::uint32_t pv = p.value();
  const ServerId primary = ctx.cluster.primary_of(p);
  if (!primary.valid()) return;

  const double q_bar = ctx.stats.avg_query(p);
  const std::uint32_t r = ctx.cluster.replica_count(p);

  // --- 1. Availability floor (Eq. 14) --------------------------------
  if (r < rmin) {
    auto hubs = hub_candidates(ctx, p, /*gamma_threshold=*/0.0,
                               /*require_gamma=*/false);
    ServerId target = pick_target(ctx, p, hubs, options_.placement);
    if (!target.valid()) {
      // No traffic observed yet (cold partition, fresh cluster): fall
      // back to diversity near the owner so the floor is restored even
      // before the first query arrives.
      target = pick_target(ctx, p, hubs, Options::Placement::kNearOwner);
    }
    if (target.valid()) {
      DecisionExplanation why = base_explanation(ctx, q_bar, r, rmin);
      why.rule = DecisionRule::kAvailabilityFloor;
      why.observed = static_cast<double>(r);
      why.threshold = static_cast<double>(rmin);
      actions.replications.push_back(ReplicateAction{p, target, why});
    }
    return;  // grow back to the floor before optimizing anything else
  }

  // --- 2. Overload relief (Eqs. 12-13, 16) ----------------------------
  DecisionExplanation overload_why = base_explanation(ctx, q_bar, r, rmin);
  if (holder_overloaded(ctx, p, primary, &overload_why)) {
    ++overload_streak_[pv];
  } else {
    overload_streak_[pv] = 0;
  }
  const bool overloaded =
      overload_streak_[pv] >= options_.overload_streak_epochs;
  bool replicated_this_epoch = false;

  if (overloaded && r < ctx.config.max_replicas_per_partition) {
    auto hubs = hub_candidates(ctx, p, ctx.config.gamma * q_bar,
                               /*require_gamma=*/true);
    bool forced = false;
    if (hubs.empty()) {
      // Forced relief: availability reached but still too much traffic.
      hubs = hub_candidates(ctx, p, 0.0, /*require_gamma=*/false);
      forced = true;
    }
    if (hubs.empty()) {
      // No forwarding node anywhere carries this partition's traffic:
      // the demand originates at the holder's own datacenter (or every
      // carrier already hosts a copy). Relieve locally — "some replicas
      // are placed on the same datacenter of the primary partition
      // holders, but in different servers" (Section III-C).
      const DatacenterId home = ctx.topology.server(primary).datacenter;
      const ServerId local = select_in_dc(ctx, home, p);
      if (local.valid()) {
        DecisionExplanation why = overload_why;
        why.rule = DecisionRule::kOverloadLocal;
        actions.replications.push_back(ReplicateAction{p, local, why});
        replicated_this_epoch = true;
      }
    }
    if (!hubs.empty()) {
      if (hubs.size() > kTopHubs) hubs.resize(kTopHubs);
      const ServerId target = pick_target(ctx, p, hubs, options_.placement);
      if (target.valid()) {
        // Migration check: is there a replica outside the top hub
        // datacenters whose relocation clears the Eq. 16 benefit bar?
        ServerId victim;
        double victim_traffic = 0.0;
        if (options_.enable_migration) {
          auto in_top_dcs = [&](DatacenterId dc) {
            return std::any_of(hubs.begin(), hubs.end(),
                               [&](const HubCandidate& h) {
                                 return ctx.topology.server(h.server)
                                            .datacenter == dc;
                               });
          };
          for (const Replica& replica : ctx.cluster.replicas_of(p)) {
            if (replica.primary) continue;
            const DatacenterId dc =
                ctx.topology.server(replica.server).datacenter;
            if (in_top_dcs(dc)) continue;
            const double tr = ctx.stats.node_traffic(p, replica.server);
            // Only relocate replicas doing markedly less work than the
            // hub would give them (cold in the Eq. 15 sense, or well
            // under the hub's traffic): moving an actively-serving
            // replica would just re-create the hole it was filling.
            if (tr > std::max(ctx.config.delta * q_bar,
                              0.3 * hubs.front().traffic)) {
              continue;
            }
            if (!victim.valid() || tr < victim_traffic) {
              victim = replica.server;
              victim_traffic = tr;
            }
          }
        }
        const double mean_tr = ctx.stats.mean_node_traffic(
            p, ctx.cluster.live_server_count());
        if (victim.valid() &&
            hubs.front().traffic - victim_traffic >=
                ctx.config.mu * mean_tr) {
          DecisionExplanation why = overload_why;
          why.rule = DecisionRule::kMigrationBenefit;
          why.observed = hubs.front().traffic - victim_traffic;
          why.threshold = ctx.config.mu * mean_tr;
          actions.migrations.push_back(
              MigrateAction{p, victim, target, why});
        } else {
          DecisionExplanation why = overload_why;
          why.rule = forced ? DecisionRule::kOverloadForced
                            : DecisionRule::kOverloadHub;
          actions.replications.push_back(ReplicateAction{p, target, why});
        }
        replicated_this_epoch = true;
      }
    }
  }

  // --- 3. Suicide (Eq. 15) --------------------------------------------
  if (options_.enable_suicide && q_bar > 0.0) {
    // This partition's cold-streak row, sorted by server id — the only
    // cross-epoch policy state the suicide rule keeps.
    std::vector<ColdStreak>& row = cold_streak_[pv];
    const auto row_find = [&row](ServerId s) {
      return std::lower_bound(row.begin(), row.end(), s.value(),
                              [](const ColdStreak& c, std::uint32_t v) {
                                return c.server < v;
                              });
    };
    const auto row_erase = [&](ServerId s) {
      const auto it = row_find(s);
      if (it != row.end() && it->server == s.value()) row.erase(it);
    };
    std::uint32_t remaining = r;
    std::uint32_t done = 0;
    for (const Replica& replica : ctx.cluster.replicas_of(p)) {
      if (replica.primary) continue;
      const double tr = ctx.stats.node_traffic(p, replica.server);
      if (tr > ctx.config.delta * q_bar) {
        row_erase(replica.server);
        continue;
      }
      auto it = row_find(replica.server);
      if (it == row.end() || it->server != replica.server.value()) {
        it = row.insert(it, ColdStreak{replica.server.value(), 0});
      }
      const std::uint32_t streak = ++it->epochs;
      if (replicated_this_epoch || done >= kMaxSuicidesPerEpoch ||
          remaining <= rmin || streak < kColdStreakEpochs) {
        continue;  // cold, but not removable (yet)
      }
      DecisionExplanation why = base_explanation(ctx, q_bar, r, rmin);
      why.rule = DecisionRule::kSuicideCold;
      why.observed = tr;
      why.threshold = ctx.config.delta * q_bar;
      actions.suicides.push_back(SuicideAction{p, replica.server, why});
      row.erase(row_find(replica.server));
      --remaining;
      ++done;
    }
  }
}

}  // namespace rfh
