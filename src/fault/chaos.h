// The chaos engine: applies a FaultPlan to a running Simulation.
//
// A ChaosController is invoked once per epoch, *before* the engine steps
// that epoch, and translates the plan's due events into calls on the
// existing failure-injection primitives (fail_servers, fail_link /
// restore_link, recover_servers, set_traffic_multiplier).
// Every injected fault is published as a FaultInjected obs event and
// counted in rfh_faults_injected_total{kind=...} when a registry is
// attached, so traces, telemetry and the controller's own tallies always
// agree.
//
// Determinism: random victim selection draws from a dedicated generator
// forked from the scenario seed with its own tag ("caos"), beside the
// engine's workload and policy streams, so a fault plan never perturbs
// either of them — the same seed and plan reproduce the same injection
// sequence bit-for-bit, with or without observers.
//
// Safety: the controller never violates engine preconditions. Kills are
// capped at live_count - 1 (the engine refuses to kill the last server),
// and link events probe link_failure_would_partition() first, skipping a
// down transition that would disconnect the datacenter graph rather than
// tripping the engine's assertion.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fault/plan.h"
#include "sim/engine.h"

namespace rfh {

class ChaosController {
 public:
  /// The controller copies the plan; `seed` is the scenario seed (the
  /// chaos stream is forked from it with a dedicated tag).
  ChaosController(const FaultPlan& plan, std::uint64_t seed);

  /// What before_epoch() did, for the caller's bookkeeping.
  struct Applied {
    std::vector<ServerId> killed;
    std::vector<ServerId> recovered;
    std::uint32_t faults = 0;  // FaultInjected events emitted
  };

  /// Invoked after every batch of kills, before any further injection —
  /// callers that consume Simulation::last_promotions() (the consistency
  /// tracker) hook in here, since the next kill batch resets it.
  using KillCallback = std::function<void(std::span<const ServerId>)>;

  /// Apply every event due at `epoch`. Call once per epoch, immediately
  /// before Simulation::step() for that epoch.
  Applied before_epoch(Simulation& sim, Epoch epoch,
                       const KillCallback& on_kill = {});

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// True once no event (including scheduled recoveries / restores) can
  /// act at or after `epoch`.
  [[nodiscard]] bool exhausted(Epoch epoch) const noexcept;

  /// Faults injected so far, total and per kind (indexed by FaultKind).
  [[nodiscard]] std::uint64_t injected_total() const noexcept;
  [[nodiscard]] const std::array<std::uint64_t, kFaultKindCount>&
  injected_by_kind() const noexcept {
    return injected_by_kind_;
  }

 private:
  /// Kill `victims` (already validated live) inside a CauseScope rooted
  /// at `cause` (the FaultInjected id), then notify and account.
  void kill_batch(Simulation& sim, std::vector<ServerId> victims,
                  FaultKind kind, Applied& applied,
                  const KillCallback& on_kill, std::uint64_t cause);
  /// Pick `n` seeded-random live servers, capped at live_count - 1.
  std::vector<ServerId> pick_live(const Simulation& sim, std::uint32_t n);
  /// Pop up to `n` longest-dead chaos victims that are still dead.
  std::vector<ServerId> pop_dead(const Simulation& sim, std::uint32_t n);
  /// Emit the FaultInjected event (the root of the injection's cause
  /// chain — call *before* applying the side effects, scoped to the
  /// returned id), set it as the ambient cause, and bump the counters.
  /// Returns the event's cause id (0 with no sinks installed).
  std::uint64_t record(Simulation& sim, Epoch epoch, FaultKind kind,
                       Applied& applied, std::uint32_t servers,
                       DatacenterId dc = {}, DatacenterId a = {},
                       DatacenterId b = {}, double magnitude = 0.0);

  FaultPlan plan_;
  Rng rng_;
  /// Chaos-killed servers with no scheduled recovery, oldest first —
  /// the pool `recover` events and churn revivals draw from.
  std::vector<ServerId> dead_pool_;
  struct PendingRecovery {
    Epoch at = 0;
    std::vector<ServerId> servers;
  };
  std::vector<PendingRecovery> pending_;
  /// Whether the i-th plan event (a flap or linkdown) currently holds its
  /// link down, so transitions fire exactly once.
  std::vector<char> link_down_;
  /// Servers the i-th plan event (a stalestats) currently holds frozen;
  /// thawed (and cleared) when the event's window closes.
  std::vector<std::vector<ServerId>> frozen_victims_;
  std::array<std::uint64_t, kFaultKindCount> injected_by_kind_{};
};

}  // namespace rfh
