// Mutable cluster state: server liveness, replica placement, storage
// accounting, and the consistent-hashing ring of live servers.
//
// Storage is the flat struct-of-arrays pair in sim/tables.h (strided
// replica slab + per-server columns); this class composes them with the
// ring and keeps the cross-cutting invariants:
//  * at most one copy of a partition per server;
//  * every live partition has exactly one primary copy;
//  * storage accounting balances: used[s] == copies_on(s) * unit_size()
//    (a full replica, or one EC fragment of partition_size / k);
//  * dead servers host nothing and are masked out of the ring.
//
// Construction is bulk: liveness, the per-DC live lists and the ring are
// built in one pass each (the ring via HashRing::add_servers), so a
// 100k-server cluster comes up in O(S log S) instead of the O(S²)
// per-server revive loop the seed used. live_by_dc_ is maintained
// incrementally on kill/revive by sorted insert/erase — bit-identical to
// a full rebuild, which kept each DC's list in ascending server id.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "obs/events.h"
#include "ring/ring.h"
#include "sim/config.h"
#include "sim/tables.h"
#include "topology/topology.h"

namespace rfh {

class ClusterState {
 public:
  ClusterState(const Topology& topology, const SimConfig& config);

  // --- replica placement -------------------------------------------------
  void add_replica(PartitionId p, ServerId s, bool primary = false);
  void remove_replica(PartitionId p, ServerId s);
  /// Make the copy on `s` (which must exist) the primary of p.
  void set_primary(PartitionId p, ServerId s);

  [[nodiscard]] ServerId primary_of(PartitionId p) const;
  [[nodiscard]] std::span<const Replica> replicas_of(PartitionId p) const;
  [[nodiscard]] bool has_replica(PartitionId p, ServerId s) const;
  /// Copy count of p (primary included).
  [[nodiscard]] std::uint32_t replica_count(PartitionId p) const;
  /// Total copies across all partitions (primary included).
  [[nodiscard]] std::uint32_t total_replicas() const noexcept {
    return partitions_.total();
  }
  /// Servers in `dc` hosting a copy of p, non-primaries first, each group
  /// in ascending server id (the deterministic absorption order).
  [[nodiscard]] std::vector<ServerId> hosts_in_dc(PartitionId p,
                                                  DatacenterId dc) const;

  // --- capacity ------------------------------------------------------------
  [[nodiscard]] Bytes storage_used(ServerId s) const;
  [[nodiscard]] double storage_fraction(ServerId s) const;
  [[nodiscard]] std::uint32_t copies_on(ServerId s) const;
  /// The constraint that refuses a new copy of `p` on `s`, or none. The
  /// checks run in this order and the first that fails names the
  /// refusal: dead (kDeadTarget), already hosting (kInvalid), the
  /// virtual-node cap (kNodeCap), in EC mode the zone-diversity rule — a
  /// datacenter may hold at most m fragments of a stripe
  /// (kZoneDiversity) — and the phi storage limit (Eq. 19, kStorageCap).
  [[nodiscard]] std::optional<DropReason> refusal(ServerId s,
                                                  PartitionId p) const;
  /// True if `s` may accept a new copy of `p`: nothing refuses it.
  [[nodiscard]] bool can_accept(ServerId s, PartitionId p) const {
    return !refusal(s, p).has_value();
  }

  // --- liveness ------------------------------------------------------------
  [[nodiscard]] bool alive(ServerId s) const;
  [[nodiscard]] std::uint32_t live_server_count() const noexcept {
    return servers_.live_count();
  }
  /// The servers at the given ranks of the live servers in ascending id
  /// order (rank r is the (r+1)-th live server), in the order the ranks
  /// are given: one pass over the liveness column, no copy of the live
  /// set. Ranks must be below live_server_count().
  [[nodiscard]] std::vector<ServerId> live_at_ranks(
      std::span<const std::size_t> ranks) const;
  /// Live servers per datacenter, indexable by DatacenterId::value().
  [[nodiscard]] std::span<const std::vector<ServerId>> live_by_dc() const {
    return live_by_dc_;
  }
  /// A partition that lost a copy when its host died (with a flag for a
  /// lost primary).
  struct LostCopy {
    PartitionId partition;
    bool was_primary = false;
  };
  /// Kill a batch of servers: drop their copies and take them off the
  /// ring. Invokes `on_killed(s, lost)` per victim in span order with
  /// that server's losses in ascending-partition order — the exact
  /// per-server sequence one-server batches in span order produce. The
  /// whole batch goes down in one pass over the partitions (not one per
  /// victim), with surviving copies keeping their slot order, and leaves
  /// the ring in O(1) per victim; the callbacks run once the batch is
  /// down, and see the same final state sequential kills leave.
  void kill_servers(
      std::span<const ServerId> servers,
      const std::function<void(ServerId, std::span<const LostCopy>)>&
          on_killed);
  /// Bring a batch of dead servers online: per-server liveness
  /// bookkeeping plus one bulk ring join (HashRing::add_servers, O(1)
  /// per known server).
  void revive_servers(std::span<const ServerId> servers);

  // --- misc ------------------------------------------------------------
  [[nodiscard]] const HashRing& ring() const noexcept { return ring_; }
  [[nodiscard]] const Topology& topology() const noexcept { return *topology_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return *config_; }

  /// Debug invariant check (used by tests and after failure injection).
  void check_invariants() const;

 private:
  void live_list_insert(ServerId s);
  void live_list_erase(ServerId s);

  const Topology* topology_;
  const SimConfig* config_;
  PartitionTable partitions_;
  ServerTable servers_;
  std::vector<std::vector<ServerId>> live_by_dc_;
  HashRing ring_;
};

}  // namespace rfh
