// Shared test helpers: whole routes collected from Router::walk,
// controlled worlds (degenerate capacity ranges so every server is
// identical), scripted workloads and policies, small scenario builders,
// event counts over a captured trace, one-server kills through the
// batch membership path, and random kills and datacenter outages through
// one-line `crash` and `outage` fault plans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/chaos.h"
#include "fault/plan.h"
#include "obs/sinks.h"
#include "routing/router.h"
#include "sim/engine.h"
#include "topology/world.h"
#include "workload/generator.h"

namespace rfh::test {

/// Kill one server through ClusterState::kill_servers and return its
/// losses (ascending partition order).
inline std::vector<ClusterState::LostCopy> kill_one(ClusterState& cluster,
                                                    ServerId server) {
  std::vector<ClusterState::LostCopy> lost;
  cluster.kill_servers(std::span<const ServerId>(&server, 1),
                       [&](ServerId, std::span<const ClusterState::LostCopy>
                                         copies) {
                         lost.assign(copies.begin(), copies.end());
                       });
  return lost;
}

/// The one-line fault plan `crash at=E count=N`: N random live servers
/// die before epoch E steps.
inline FaultPlan crash_plan(Epoch at, std::uint32_t count) {
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.at = at;
  crash.count = count;
  FaultPlan plan;
  plan.add(crash);
  return plan;
}

/// Kill `count` random live servers now, between steps: crash_plan at
/// the simulation's current epoch, applied by a ChaosController seeded
/// with that epoch (so waves at different epochs draw differently).
/// Returns the victims.
inline std::vector<ServerId> crash_now(Simulation& sim, std::uint32_t count) {
  ChaosController chaos(crash_plan(sim.epoch(), count), sim.epoch());
  return chaos.before_epoch(sim, sim.epoch()).killed;
}

/// Take datacenter `dc` down now, between steps: the one-line plan
/// `outage at=E dc=D` at the simulation's current epoch, applied by a
/// ChaosController. Returns the victims, the datacenter's live servers
/// (none if it is the last datacenter standing).
inline std::vector<ServerId> outage_now(Simulation& sim, DatacenterId dc) {
  FaultEvent outage;
  outage.kind = FaultKind::kDatacenterOutage;
  outage.at = sim.epoch();
  outage.dc = dc;
  FaultPlan plan;
  plan.add(outage);
  ChaosController chaos(plan, sim.epoch());
  return chaos.before_epoch(sim, sim.epoch()).killed;
}

/// Every stage of one route, collected by walking it to the end.
struct WalkedRoute : RouteEnd {
  std::vector<RouteStage> stages;  // requester DC first, holder DC last
};

inline WalkedRoute walk_route(
    const Router& router, PartitionId partition, DatacenterId requester,
    ServerId holder, std::span<const std::vector<ServerId>> live_by_dc,
    Router::RouteCtx& ctx) {
  WalkedRoute route;
  static_cast<RouteEnd&>(route) =
      router.walk(partition, requester, holder, live_by_dc, ctx,
                  [&](const RouteStage& stage) {
                    route.stages.push_back(stage);
                    return true;
                  });
  return route;
}

inline WalkedRoute walk_route(
    const Router& router, PartitionId partition, DatacenterId requester,
    ServerId holder, std::span<const std::vector<ServerId>> live_by_dc) {
  Router::RouteCtx ctx;
  return walk_route(router, partition, requester, holder, live_by_dc, ctx);
}

/// World options with all heterogeneity collapsed: every server has
/// exactly `capacity` per-replica capacity, `channels` service channels,
/// and `storage` bytes of disk.
inline WorldOptions uniform_world_options(double capacity = 2.0,
                                          std::uint32_t channels = 4,
                                          Bytes storage = gib(10)) {
  WorldOptions o;
  o.per_replica_capacity_lo = capacity;
  o.per_replica_capacity_hi = capacity;
  o.service_channels_lo = channels;
  o.service_channels_hi = channels;
  o.storage_capacity_lo = storage;
  o.storage_capacity_hi = storage;
  return o;
}

/// Emits the same fixed batch every epoch (deterministic by construction).
class FixedWorkload final : public WorkloadGenerator {
 public:
  explicit FixedWorkload(QueryBatch batch) : batch_(std::move(batch)) {}
  [[nodiscard]] QueryBatch generate(Epoch /*epoch*/, Rng& /*rng*/) override {
    return batch_;
  }

 private:
  QueryBatch batch_;
};

/// Emits batches from a per-epoch schedule; epochs beyond the schedule
/// reuse the last entry (empty schedule -> empty batches).
class ScheduledWorkload final : public WorkloadGenerator {
 public:
  explicit ScheduledWorkload(std::vector<QueryBatch> schedule)
      : schedule_(std::move(schedule)) {}
  [[nodiscard]] QueryBatch generate(Epoch epoch, Rng& /*rng*/) override {
    if (schedule_.empty()) return {};
    const std::size_t i =
        std::min<std::size_t>(epoch, schedule_.size() - 1);
    return schedule_[i];
  }

 private:
  std::vector<QueryBatch> schedule_;
};

/// Never acts.
class NullPolicy final : public ReplicationPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "Null"; }
  [[nodiscard]] Actions decide(const PolicyContext& /*ctx*/) override {
    return {};
  }
};

/// Replays a fixed queue of action sets, then does nothing.
class ScriptedPolicy final : public ReplicationPolicy {
 public:
  explicit ScriptedPolicy(std::vector<Actions> script)
      : script_(std::move(script)) {}
  [[nodiscard]] std::string_view name() const override { return "Scripted"; }
  [[nodiscard]] Actions decide(const PolicyContext& /*ctx*/) override {
    if (next_ >= script_.size()) return {};
    return script_[next_++];
  }

 private:
  std::vector<Actions> script_;
  std::size_t next_ = 0;
};

/// Adapts a callable into a policy — handy for probing the PolicyContext
/// from inside a running simulation.
template <typename Fn>
class LambdaPolicy final : public ReplicationPolicy {
 public:
  explicit LambdaPolicy(Fn fn) : fn_(std::move(fn)) {}
  [[nodiscard]] std::string_view name() const override { return "Lambda"; }
  [[nodiscard]] Actions decide(const PolicyContext& ctx) override {
    return fn_(ctx);
  }

 private:
  Fn fn_;
};

template <typename Fn>
std::unique_ptr<LambdaPolicy<Fn>> make_lambda_policy(Fn fn) {
  return std::make_unique<LambdaPolicy<Fn>>(std::move(fn));
}

/// A paper-world simulation with a fixed workload and a given policy.
inline std::unique_ptr<Simulation> make_fixed_sim(
    QueryBatch batch, std::unique_ptr<ReplicationPolicy> policy,
    SimConfig config = {}, WorldOptions world_options = uniform_world_options()) {
  return std::make_unique<Simulation>(
      build_paper_world(world_options), config,
      std::make_unique<FixedWorkload>(std::move(batch)), std::move(policy));
}

/// Captured events of type E.
template <typename E>
std::uint64_t count_events(const CaptureSink& capture) {
  return static_cast<std::uint64_t>(std::count_if(
      capture.events.begin(), capture.events.end(),
      [](const Event& e) { return std::holds_alternative<E>(e); }));
}

/// Captured ActionDropped events with the given reason.
inline std::uint64_t count_dropped(const CaptureSink& capture,
                                   DropReason reason) {
  return static_cast<std::uint64_t>(std::count_if(
      capture.events.begin(), capture.events.end(), [reason](const Event& e) {
        const auto* dropped = std::get_if<ActionDropped>(&e);
        return dropped != nullptr && dropped->reason == reason;
      }));
}

}  // namespace rfh::test
