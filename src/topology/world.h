// The paper's evaluation world (Fig. 1 / Section III-A).
//
// Ten datacenters in different countries on three continents: three in the
// USA (A..C), two in Canada (D, E), two in Switzerland (F, G), one in
// China (H) and two in Japan (I, J). Each datacenter initially has one
// room with two racks of five servers, i.e. 100 physical nodes total.
//
// The inter-datacenter link set is chosen so that the traffic-hub
// structure of the paper's running example emerges: queries from the
// Asian datacenters (H, I, J) towards the US partition holder A funnel
// through a small number of gateway datacenters (D/B for the
// trans-Pacific flows, F/C for the Eurasian flow). The exact hub
// identities depend on the link set — see DESIGN.md §2.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "topology/topology.h"

namespace rfh {

/// An undirected inter-datacenter link with a kilometre weight (used both
/// as the Dijkstra edge weight and as Eq. 1's distance d).
struct Link {
  DatacenterId a;
  DatacenterId b;
  double km = 0.0;
};

struct WorldOptions {
  std::uint32_t rooms_per_datacenter = 1;
  std::uint32_t racks_per_room = 2;
  std::uint32_t servers_per_rack = 5;

  // Heterogeneous capacity ranges ("for every server, their capacities are
  // different from each other"). Drawn uniformly per server.
  Bytes storage_capacity_lo = gib(8);
  Bytes storage_capacity_hi = gib(10);
  double per_replica_capacity_lo = 2.5;
  double per_replica_capacity_hi = 5.0;
  std::uint32_t service_channels_lo = 4;
  std::uint32_t service_channels_hi = 8;
  BytesPerEpoch replication_bandwidth = mib(300);
  BytesPerEpoch migration_bandwidth = mib(100);
  std::uint32_t max_vnodes = 16;
  /// Partition count the world will carry (0 = unknown). The effective
  /// per-server vnode cap is max(max_vnodes, partitions_hint): one server
  /// can never legally hold two copies of the same partition, so a cap at
  /// the partition count is exactly never-binding. Without the hint the
  /// fixed default cap silently starves availability-floor repairs once
  /// the partition-to-server density outgrows it (dense worlds, shrunken
  /// clusters) — set it whenever the partition count is known.
  std::uint32_t partitions_hint = 0;

  std::uint64_t seed = 42;
};

struct World {
  Topology topology;
  std::vector<Link> links;
  /// Datacenter ids in paper order: index 0 == "A", ..., 9 == "J".
  std::vector<DatacenterId> dc;

  /// Convenience: datacenter id for a paper letter ('A'..'J').
  [[nodiscard]] DatacenterId by_letter(char letter) const;
};

/// Datacenters in the paper's Fig. 1 world.
inline constexpr std::uint32_t kPaperDatacenters = 10;

/// Build the default 10-datacenter, 100-server world.
World build_paper_world(const WorldOptions& options = {});

/// Build a smaller or larger synthetic world with `n_datacenters` placed
/// round-robin across the paper's continents and connected in a ring plus
/// deterministic chords (used by scaling tests and property sweeps).
///
/// `chord_strides` controls the chord set. Empty (the default) keeps the
/// legacy rule — a stride-3 chord at every third datacenter, diameter
/// O(n/3). For large-N scaling benches pass log-spaced strides (e.g.
/// {8, 64, 512}): every datacenter at a multiple of stride s links to the
/// one s positions ahead, giving the O(log n) diameter of a real
/// multi-tier backbone instead of a thin ring.
World build_synthetic_world(std::uint32_t n_datacenters,
                            const WorldOptions& options = {},
                            std::span<const std::uint32_t> chord_strides = {});

}  // namespace rfh
