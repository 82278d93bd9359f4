#include "harness/scenario.h"

#include <vector>

#include "baselines/owner_policy.h"
#include "baselines/random_policy.h"
#include "baselines/request_policy.h"
#include "common/assert.h"

namespace rfh {

namespace {

/// Table I's lambda per datacenter: 300 queries per epoch over 10 DCs.
constexpr double kQueriesPerDatacenter = 30.0;

}  // namespace

std::string_view policy_name(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kRequest: return "Request";
    case PolicyKind::kOwner: return "Owner";
    case PolicyKind::kRandom: return "Random";
    case PolicyKind::kRfh: return "RFH";
  }
  return "?";
}

Scenario Scenario::paper_random_query() {
  Scenario s;
  s.workload = WorkloadKind::kUniform;
  s.epochs = 250;
  return s;
}

Scenario Scenario::paper_flash_crowd() {
  Scenario s;
  s.workload = WorkloadKind::kFlashCrowd;
  s.epochs = 400;
  return s;
}

Scenario Scenario::paper_failure_recovery() {
  Scenario s;
  s.workload = WorkloadKind::kUniform;
  s.epochs = 500;
  s.fault_plan = FaultPlan::parse("crash at=290 count=30").plan;
  return s;
}

std::unique_ptr<ReplicationPolicy> make_policy(PolicyKind kind,
                                               const RfhPolicy::Options& rfh) {
  switch (kind) {
    case PolicyKind::kRequest:
      return std::make_unique<RequestOrientedPolicy>();
    case PolicyKind::kOwner:
      return std::make_unique<OwnerOrientedPolicy>();
    case PolicyKind::kRandom:
      return std::make_unique<RandomPolicy>();
    case PolicyKind::kRfh:
      return std::make_unique<RfhPolicy>(rfh);
  }
  RFH_UNREACHABLE("unknown policy kind");
}

World make_world(const Scenario& scenario) {
  if (scenario.datacenters == 0) return build_paper_world(scenario.world);
  std::vector<std::uint32_t> strides;
  for (std::uint32_t s = 8; s < scenario.datacenters; s *= 8) {
    strides.push_back(s);
  }
  return build_synthetic_world(scenario.datacenters, scenario.world, strides);
}

std::unique_ptr<WorkloadGenerator> make_workload(const Scenario& scenario,
                                                 const World& world) {
  WorkloadParams params;
  params.partitions = scenario.sim.partitions;
  params.datacenters =
      static_cast<std::uint32_t>(world.topology.datacenter_count());
  params.mean_queries_per_epoch =
      kQueriesPerDatacenter * static_cast<double>(params.datacenters);
  params.zipf_exponent = scenario.zipf_exponent;
  switch (scenario.workload) {
    case WorkloadKind::kUniform:
      return std::make_unique<UniformWorkload>(params);
    case WorkloadKind::kFlashCrowd:
      RFH_ASSERT_MSG(scenario.datacenters == 0,
                     "the flash crowd needs the paper world");
      return std::make_unique<FlashCrowdWorkload>(
          params, FlashCrowdWorkload::paper_stages(world.dc),
          scenario.epochs);
    case WorkloadKind::kHotspotShift:
      return std::make_unique<HotspotShiftWorkload>(
          params, /*phase_epochs=*/scenario.epochs / 4 + 1);
    case WorkloadKind::kStream:
      // Batch equivalence by construction: the stream workload *is* the
      // uniform generator (same RNG stream, mean = arrival_rate, which
      // defaults to the Table I lambda), so stream and uniform runs at
      // the same seed produce identical batches and the queueing layer
      // only decides arrival times.
      params.mean_queries_per_epoch = scenario.stream.arrival_rate;
      return std::make_unique<UniformWorkload>(params);
  }
  RFH_UNREACHABLE("unknown workload kind");
}

std::unique_ptr<Simulation> make_simulation(const Scenario& scenario,
                                            PolicyKind kind,
                                            const RfhPolicy::Options& rfh) {
  World world = make_world(scenario);
  auto workload = make_workload(scenario, world);
  auto policy = make_policy(kind, rfh);
  auto sim = std::make_unique<Simulation>(std::move(world), scenario.sim,
                                          std::move(workload),
                                          std::move(policy));
  if (scenario.engine_jobs != 1) sim->set_jobs(scenario.engine_jobs);
  return sim;
}

}  // namespace rfh
