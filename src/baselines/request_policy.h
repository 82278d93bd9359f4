// The request-oriented comparator (paper refs [16][5]: Gnutella-style
// replicate-at-the-requester schemes).
//
// "It will choose among datacenters closest to the clients, where most of
// the queries come from ... randomly choose a node among the top 3 ones
// to replicate on. The migration process is started when another node
// without any replica joins in the list of the top 3."
//
// Consequences the paper measures and this implementation preserves:
// replicas only ever live at the current top-3 requester datacenters
// (plus the primary), so the copy count is structurally small and lookup
// hops are near zero for covered flows — but when the crowd moves, the
// stale replicas serve nothing until migrations (one per partition per
// epoch) catch up, collapsing utilization; and the random in-datacenter
// server choice gives the worst load balance.
#pragma once

#include <string_view>
#include <vector>

#include "sim/policy.h"

namespace rfh {

class RequestOrientedPolicy final : public ReplicationPolicy {
 public:
  /// `top_requesters`: datacenters forming the preference set (paper: 3).
  /// `max_migrations_per_epoch`: global re-homing budget per epoch — the
  /// scheme adjusts a few partitions at a time, which is what makes its
  /// recovery after a crowd shift take "a long period of time" (paper
  /// Section III-B).
  explicit RequestOrientedPolicy(std::uint32_t top_requesters = 3,
                                 std::uint32_t max_migrations_per_epoch = 2)
      : top_requesters_(top_requesters),
        max_migrations_per_epoch_(max_migrations_per_epoch) {}

  [[nodiscard]] std::string_view name() const override { return "Request"; }
  [[nodiscard]] Actions decide(const PolicyContext& ctx) override;
  [[nodiscard]] bool reads_requester_stats() const override { return true; }

 private:
  struct Requester {
    DatacenterId dc;
    double queries = 0.0;
  };
  struct Streak {
    DatacenterId dc;  // invalid: a free slot
    std::uint32_t epochs = 0;
  };

  std::uint32_t top_requesters_;
  std::uint32_t max_migrations_per_epoch_;
  /// Consecutive epochs each datacenter of a partition's current top set
  /// has been in it, top_requesters_ slots per partition; a datacenter
  /// that leaves the set loses its slot. A *join* (the paper's migration
  /// trigger) is a membership that persists, not a one-epoch sampling
  /// blip.
  std::vector<Streak> streaks_;
  // Per-partition scratch, reused across partitions and epochs.
  std::vector<Requester> ranked_;
  std::vector<Requester> vacant_;
};

}  // namespace rfh
