#include "baselines/random_policy.h"

#include "ring/ring.h"

namespace rfh {

Actions RandomPolicy::decide(const PolicyContext& ctx) {
  Actions actions;
  const std::uint32_t rmin = ctx.config.availability_floor();

  for (std::uint32_t pv = 0; pv < ctx.config.partitions; ++pv) {
    const PartitionId p{pv};
    const ServerId primary = ctx.cluster.primary_of(p);
    if (!primary.valid()) continue;

    const std::uint32_t r = ctx.cluster.replica_count(p);
    const bool overloaded = holder_overloaded(ctx, p, primary);

    if (r >= rmin &&
        (!overloaded || r >= ctx.config.max_replicas_per_partition)) {
      continue;
    }
    // Next free clockwise successor ("replicate data at the N-1 clockwise
    // successor nodes"). The preference list already skips duplicates, so
    // walking a little past the current count finds the first server not
    // yet hosting the partition.
    const auto preference = ctx.cluster.ring().preference_list(
        HashRing::partition_key(p), r + 4);
    for (const ServerId candidate : preference) {
      if (ctx.cluster.can_accept(candidate, p)) {
        actions.replications.push_back(ReplicateAction{p, candidate, {}});
        break;
      }
    }
  }
  return actions;
}

}  // namespace rfh
