// Geographic diversity of replica placement (paper Section II-A's
// availability levels).
//
// The paper grades a *pair* of servers 1..5 by the failure domain they
// share (same server .. different datacenters). For a partition, what
// matters for surviving a domain failure is the most-separated pair of
// copies: a partition with max pairwise level 5 survives the loss of any
// single datacenter. The diversity level of a partition is therefore the
// maximum availability level over its copy pairs (0 for a partition with
// fewer than two copies — no redundancy at all).
#pragma once

#include <cstdint>

#include "sim/cluster.h"
#include "topology/topology.h"

namespace rfh {

/// Max pairwise availability level among p's copies; 0 when r < 2.
std::uint32_t partition_diversity_level(const ClusterState& cluster,
                                        const Topology& topology,
                                        PartitionId p);

}  // namespace rfh
