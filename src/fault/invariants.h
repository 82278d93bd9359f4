// Always-on cross-cutting invariant checking.
//
// An InvariantChecker is invoked once per epoch, right after
// Simulation::step(), and verifies properties that no single subsystem
// owns (see DESIGN.md for the catalogue):
//
//   replica_floor     every partition holds >= Eq. 14 minimum copies
//                     (the k-of-n fragment floor in EC mode), unless a
//                     recorded failure explains the deficit
//   dead_host         no copy (primary included) lives on a dead server
//   routing           the primary of every partition is reachable: it is
//                     valid, listed live in its datacenter, and the
//                     shortest path from DC 0 ends in that datacenter
//   storage           every live server respects the Eq. 19 occupancy
//                     limit phi and its vnode cap, and its copy count
//                     (which its used bytes derive from) matches the
//                     copies the placement puts on it
//   accounting        the EpochReport's replica census matches the
//                     cluster's, which matches the per-partition sum
//   traffic           per-partition query/unserved tallies sum to the
//                     epoch totals, and no replica served beyond its
//                     capacity
//   telemetry         registry counters reconcile with the accumulated
//                     EpochReport fields (only when a registry is
//                     attached and the checker saw every epoch)
//   fragment_census   EC mode: no partition exceeds the copy cap, and a
//                     stripe below k live fragments is either still
//                     bootstrapping or recorded as a data loss
//   zone_diversity    EC mode: no datacenter hosts more than m fragments
//                     of one stripe (a single-DC loss can't sink it)
//
// Modes: kRecord collects violations for inspection (benches, the CLI);
// kFailFast prints every violation of the offending epoch to stderr and
// aborts, so soak runs and sanitizer jobs stop at the first bad state
// with the trace intact.
//
// The checker is an observer: it never mutates the simulation, draws no
// randomness, and attaching it cannot change a seeded run's results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "stream/config.h"
#include "stream/stream_sim.h"

namespace rfh {

enum class InvariantId : std::uint8_t {
  kReplicaFloor = 0,
  kDeadHost,
  kRouting,
  kStorage,
  kAccounting,
  kTraffic,
  kTelemetry,
  /// Stream layer: no server's waiting room ever exceeds --queue-cap.
  kQueueDepth,
  /// Stream layer: arrivals == served + blocked + dropped per epoch, and
  /// arrivals match the batch engine's total queries.
  kStreamAccounting,
  /// EC mode: stripe width within the cap; below-k stripes are either
  /// bootstrapping or recorded data losses.
  kFragmentCensus,
  /// EC mode: at most m fragments of one stripe per datacenter.
  kZoneDiversity,
};
inline constexpr std::size_t kInvariantCount = 11;

/// Stable snake_case name ("replica_floor", ...).
[[nodiscard]] const char* invariant_name(InvariantId id) noexcept;

class InvariantChecker {
 public:
  enum class Mode {
    kRecord,    // collect violations, never abort
    kFailFast,  // print the epoch's violations to stderr and abort
  };

  explicit InvariantChecker(Mode mode = Mode::kRecord) : mode_(mode) {}

  struct Violation {
    Epoch epoch = 0;
    InvariantId id = InvariantId::kReplicaFloor;
    std::string detail;
  };

  /// Verify every invariant against the post-step state. Returns the
  /// number of violations found this epoch (always 0 in fail-fast mode —
  /// it aborts instead of returning nonzero).
  std::size_t check_epoch(const Simulation& sim, const EpochReport& report);

  /// Verify the stream layer's queue invariants for one processed epoch:
  /// kQueueDepth (max waiting-room occupancy <= config.queue_cap) and
  /// kStreamAccounting (arrivals == served + blocked + dropped, and
  /// arrivals == the batch engine's total queries
  /// `batch_total_queries`). Call after StreamSimulator::process_epoch;
  /// same return/abort semantics as check_epoch.
  std::size_t check_stream(const StreamEpochStats& stats,
                           const StreamConfig& config,
                           double batch_total_queries);

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::size_t epochs_checked() const noexcept {
    return epochs_checked_;
  }
  /// One line per violation, prefixed with a pass/fail headline.
  [[nodiscard]] std::string summary() const;

 private:
  void report_violation(Epoch epoch, InvariantId id, std::string detail);
  /// Fail-fast mode: print this epoch's violations and abort.
  void abort_if_failed(const char* layer, Epoch epoch) const;

  // Per-partition checks, run in one pass over the partitions.
  void check_dead_hosts(const Simulation& sim, PartitionId pid, Epoch epoch);
  void check_replica_floor(const Simulation& sim, PartitionId pid,
                           Epoch epoch);
  void check_routing(const Simulation& sim, PartitionId pid, Epoch epoch);
  void check_traffic(const Simulation& sim, PartitionId pid, Epoch epoch);
  void check_fragment_census(const Simulation& sim, PartitionId pid,
                             Epoch epoch);
  void check_zone_diversity(const Simulation& sim, PartitionId pid,
                            Epoch epoch);
  // Per-server, then global checks over the pass's sums.
  void check_storage(const Simulation& sim, Epoch epoch);
  void check_accounting(const Simulation& sim, const EpochReport& report,
                        std::uint32_t by_partition);
  void check_conservation(const Simulation& sim, const EpochReport& report,
                          double queries, double unserved);
  void check_telemetry(const Simulation& sim, Epoch epoch);

  Mode mode_;
  std::vector<Violation> violations_;
  std::size_t violations_this_epoch_ = 0;
  std::size_t epochs_checked_ = 0;

  // replica_floor excuse state: a partition below the Eq. 14 floor is
  // excused while bootstrapping (it has never reached the floor) or after
  // a copy was lost to a server failure, until it climbs back.
  std::vector<char> excused_;
  std::vector<std::vector<ServerId>> prev_hosts_;

  // traffic: per-server per_replica_capacity, read once on the first
  // check (a server's spec never changes).
  std::vector<double> capacity_;

  // storage: copies per server recounted from the placement in the
  // partition pass; check_storage compares and zeroes them.
  std::vector<std::uint32_t> placed_;

  // fragment_census bootstrap state: 1 once the partition has ever held
  // >= k live fragments (EC mode only).
  std::vector<char> reached_k_;

  // telemetry reconciliation accumulators (sums of EpochReport fields).
  double queries_sum_ = 0.0;
  double unserved_sum_ = 0.0;
  std::uint64_t replications_sum_ = 0;
  std::uint64_t migrations_sum_ = 0;
  std::uint64_t suicides_sum_ = 0;
};

}  // namespace rfh
