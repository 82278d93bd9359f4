#include "core/selection.h"

#include <vector>

#include "common/erlang.h"

namespace rfh {

double blocking_probability(const PolicyContext& ctx, ServerId s) {
  const ServerSpec& spec = ctx.topology.server(s).spec;
  const double service_rate = std::max(spec.per_replica_capacity, 1e-9);
  const double offered = ctx.stats.server_arrival(s) / service_rate;
  return erlang_b(offered, spec.service_channels);
}

ServerId select_server_erlang_b(const PolicyContext& ctx, DatacenterId dc,
                                PartitionId p) {
  ServerId best;
  double best_bp = 0.0;
  for (const ServerId s : ctx.cluster.live_by_dc()[dc.value()]) {
    if (!ctx.cluster.can_accept(s, p)) continue;
    const double bp = blocking_probability(ctx, s);
    if (!best.valid() || bp < best_bp) {
      best = s;
      best_bp = bp;
    }
  }
  return best;
}

ServerId select_server_first_fit(const PolicyContext& ctx, DatacenterId dc,
                                 PartitionId p) {
  for (const ServerId s : ctx.cluster.live_by_dc()[dc.value()]) {
    if (ctx.cluster.can_accept(s, p)) return s;
  }
  return ServerId::invalid();
}

ServerId select_server_random(const PolicyContext& ctx, DatacenterId dc,
                              PartitionId p, Rng& rng) {
  // Count the feasible servers, draw one rank, walk to it: the draw and
  // the pick a list of the feasible servers would give, without the list.
  const std::vector<ServerId>& live = ctx.cluster.live_by_dc()[dc.value()];
  std::uint64_t feasible = 0;
  for (const ServerId s : live) {
    if (ctx.cluster.can_accept(s, p)) ++feasible;
  }
  if (feasible == 0) return ServerId::invalid();
  std::uint64_t rank = rng.uniform(feasible);
  for (const ServerId s : live) {
    if (ctx.cluster.can_accept(s, p) && rank-- == 0) return s;
  }
  return ServerId::invalid();  // unreachable: rank < feasible
}

}  // namespace rfh
