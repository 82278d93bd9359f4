#include "metrics/diversity.h"

#include <algorithm>

namespace rfh {

std::uint32_t partition_diversity_level(const ClusterState& cluster,
                                        const Topology& topology,
                                        PartitionId p) {
  const auto replicas = cluster.replicas_of(p);
  if (replicas.size() < 2) return 0;
  std::uint32_t best = 1;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    for (std::size_t j = i + 1; j < replicas.size(); ++j) {
      best = std::max(best, topology.availability_level(replicas[i].server,
                                                        replicas[j].server));
      if (best == 5) return 5;  // cannot improve further
    }
  }
  return best;
}

}  // namespace rfh
