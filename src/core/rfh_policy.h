// The RFH decision tree (paper Fig. 2 and Section II-E).
//
// Every epoch, every partition's virtual node runs:
//
//  1. Availability floor (Eq. 14): if the copy count is below r_min, grow
//     a copy at the most-forwarding node "even if all the nodes are not
//     overloaded".
//  2. Overload relief: if the primary's smoothed traffic satisfies
//     Eq. 12 (tr >= beta * q_bar), gather the traffic hubs — forwarding
//     servers satisfying Eq. 13 (tr >= gamma * q_bar) that have storage
//     and bandwidth capacity — and consider the top 3 by traffic. If no
//     server crosses gamma, relief is forced using the top forwarders
//     anyway (the decision tree's "force the scheme to start relieving
//     load" branch). If some existing replica sits outside the top-3 and
//     the migration benefit (Eq. 16: tr_hub - tr_replica >= mu * mean
//     traffic) holds, migrate it to the hub; otherwise replicate a new
//     copy there. Inside the hub datacenter the physical server with the
//     lowest Erlang-B blocking probability is chosen (Eqs. 18-19).
//  3. Suicide (Eq. 15): a replica whose smoothed traffic fell below
//     delta * q_bar removes itself if availability stays satisfied
//     without it.
//
// Options expose ablation knobs (placement family, Erlang-B vs. random
// server choice, migration/suicide toggles) used by bench_ablation_*.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "obs/events.h"
#include "sim/policy.h"

namespace rfh {

class Counter;

class RfhPolicy final : public ReplicationPolicy {
 public:
  struct Options {
    bool enable_migration = true;
    bool enable_suicide = true;
    /// Use Erlang-B server selection inside the target datacenter; when
    /// false, fall back to first-fit (ablation: value of Eq. 18).
    bool erlang_b_selection = true;
    /// How the target datacenter is chosen (ablation: value of
    /// traffic-oriented placement while keeping the rest of RFH fixed).
    enum class Placement { kTrafficHub, kNearOwner, kNearRequester, kRandom };
    Placement placement = Placement::kTrafficHub;
    /// Hysteresis: the holder must satisfy Eq. 12 for this many
    /// consecutive epochs before relief starts (see kColdStreakEpochs).
    std::uint32_t overload_streak_epochs = 3;
  };
  /// Replication requests considered by the holder ("choose a node
  /// among the 3 nodes with the largest amount of traffic").
  static constexpr std::uint32_t kTopHubs = 3;
  /// At most this many suicides per partition per epoch.
  static constexpr std::uint32_t kMaxSuicidesPerEpoch = 1;
  /// Hysteresis: a replica must sit below the Eq. 15 threshold for this
  /// many consecutive epochs before it suicides. One noisy Poisson epoch
  /// passing the fast EWMA (alpha = 0.2 weights the newest sample at 0.8)
  /// would otherwise cause replicate/suicide churn in steady state.
  static constexpr std::uint32_t kColdStreakEpochs = 6;

  RfhPolicy() = default;
  explicit RfhPolicy(const Options& options) : options_(options) {}

  [[nodiscard]] std::string_view name() const override { return "RFH"; }
  [[nodiscard]] Actions decide(const PolicyContext& ctx) override;

  /// Export decision counters (rfh_policy_*): decide calls, proposals by
  /// kind, and which inequality fired per action. nullptr detaches.
  void set_telemetry(MetricRegistry* registry) override;
  /// Only the near-requester placement ranks DCs by requester volume.
  [[nodiscard]] bool reads_requester_stats() const override {
    return options_.placement == Options::Placement::kNearRequester;
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  struct HubCandidate {
    ServerId server;
    double traffic = 0.0;
  };

  /// One decide shard's output and scratch, reused across epochs.
  struct DecideShard {
    Actions actions;
    std::vector<HubCandidate> hubs;
  };

  /// Fill `out` with the forwarding servers not hosting p, by smoothed
  /// traffic descending (id ascending on ties); with `require_gamma`, only
  /// those crossing the Eq. 13 threshold. Scans the partition's nonzero
  /// tr_bar cells, not the full server axis — only servers with positive
  /// smoothed traffic can qualify.
  void hub_candidates(const PolicyContext& ctx, PartitionId p,
                      double gamma_threshold, bool require_gamma,
                      std::vector<HubCandidate>& out) const;

  /// Run the Fig. 2 decision tree for one partition, appending into
  /// `shard.actions`. Touches only [p]-indexed policy state (overload/cold
  /// streaks) and the shard, so the decide scan shards partitions across
  /// a pool — concatenated in shard order, the result is byte-identical
  /// to the serial scan.
  void decide_partition(const PolicyContext& ctx, PartitionId p,
                        std::uint32_t rmin, DecideShard& shard);

  /// Pick the target server for a new copy of p according to
  /// `placement`; invalid if nothing is feasible.
  [[nodiscard]] ServerId pick_target(const PolicyContext& ctx, PartitionId p,
                                     const std::vector<HubCandidate>& hubs,
                                     Options::Placement placement) const;

  [[nodiscard]] ServerId select_in_dc(const PolicyContext& ctx,
                                      DatacenterId dc, PartitionId p) const;

  /// Count `actions` into the resolved registry handles.
  void count_actions(const Actions& actions);

  Options options_;
  // Registry-owned counters (null when telemetry is detached).
  Counter* decide_calls_ = nullptr;
  std::array<Counter*, 3> proposed_{};  // indexed by ActionKind
  std::array<Counter*, kDecisionRuleCount> rule_fired_{};
  /// Consecutive epochs each partition's holder has been overloaded.
  std::vector<std::uint32_t> overload_streak_;
  /// Consecutive epochs a copy has been cold. Kept per partition (sorted
  /// by server id) so the sharded decide scan mutates only shard-owned
  /// rows.
  struct ColdStreak {
    std::uint32_t server = 0;
    std::uint32_t epochs = 0;
  };
  std::vector<std::vector<ColdStreak>> cold_streak_;  // [p]
  std::vector<DecideShard> decide_shards_;
};

}  // namespace rfh
