// Scenario construction: Table I defaults bundled with a world shape, a
// workload setting and a policy choice, producing ready-to-run
// Simulations. The scenario is the one description of a run: its
// `datacenters` count picks the paper's Fig. 1 world or a synthetic ring,
// and make_world / make_workload / make_policy build every part from it,
// for the engine and the differential oracle alike.
#pragma once

#include <memory>
#include <string_view>

#include "core/rfh_policy.h"
#include "fault/plan.h"
#include "sim/engine.h"
#include "stream/config.h"
#include "telemetry/slo.h"
#include "topology/world.h"
#include "workload/generator.h"

namespace rfh {

enum class PolicyKind { kRequest, kOwner, kRandom, kRfh };
/// kStream generates the same per-epoch batches as kUniform (identical
/// RNG consumption, mean = stream.arrival_rate) and additionally runs
/// the src/stream/ queueing layer over them in the runner.
enum class WorkloadKind { kUniform, kFlashCrowd, kHotspotShift, kStream };

std::string_view policy_name(PolicyKind kind) noexcept;

struct Scenario {
  /// World shape: 0 is the paper's Fig. 1 world (ten named datacenters);
  /// N > 0 is a synthetic ring of N datacenters with log-spaced chords
  /// (make_world). Either way `world` sets the servers per datacenter.
  std::uint32_t datacenters = 0;
  WorldOptions world;
  SimConfig sim;
  WorkloadKind workload = WorkloadKind::kUniform;
  /// Horizon: the paper runs 250 epochs under random query and 400 under
  /// flash crowd.
  Epoch epochs = 250;
  double zipf_exponent = 0.8;
  /// When positive, this fraction of every partition's queries are
  /// writes, and the runner tracks eventual-consistency metrics (replica
  /// lag, stale reads, failover write loss) via ConsistencyTracker.
  /// Purely observational: placement decisions are unaffected.
  double write_fraction = 0.0;
  /// Scheduled chaos (fault/plan.h). When non-empty, the runner drives a
  /// ChaosController seeded from `sim.seed`, so the same scenario injects
  /// the same faults into every compared policy's run.
  FaultPlan fault_plan;
  /// Streaming-load knobs; only consulted when workload == kStream
  /// (--arrival-rate / --queue-cap / --service-cv in the CLI).
  StreamConfig stream;
  /// Service-level objectives (--slo=<spec> in the CLI). When any
  /// objective is enabled the runner drives an SloWatchdog over the
  /// per-epoch metrics and collects its breach episodes. Observational
  /// only: placement decisions are unaffected.
  SloSpec slo;
  /// Intra-epoch worker threads (Simulation::set_jobs): 0 = one per
  /// hardware thread, 1 = serial. Results are byte-identical for every
  /// value, so this is a wall-clock knob only — and deliberately NOT
  /// part of SimConfig, which is serialized into fuzzer case files.
  unsigned engine_jobs = 1;

  /// Table I defaults with the paper's horizons per workload kind.
  static Scenario paper_random_query();
  static Scenario paper_flash_crowd();
  /// Fig. 10: 500 epochs, and the plan line `crash at=290 count=30`.
  static Scenario paper_failure_recovery();
};

/// Options for the RFH policy when `PolicyKind::kRfh` is instantiated
/// (ablation benches override these).
std::unique_ptr<ReplicationPolicy> make_policy(PolicyKind kind,
                                               const RfhPolicy::Options& rfh =
                                                   {});

/// The scenario's world: build_paper_world when `datacenters` is 0,
/// otherwise build_synthetic_world over log-spaced chord strides
/// {8, 64, 512, ...}, which keep the inter-DC diameter O(log n). Up to 8
/// datacenters the stride list is empty, so the builder's stride-3 rule
/// applies.
World make_world(const Scenario& scenario);

/// The scenario's demand over `world`: a Poisson mean of 30 queries per
/// epoch per datacenter (Table I's lambda = 300 on the ten-DC paper
/// world). The flash crowd names the paper's datacenter letters, so it
/// needs the paper world.
std::unique_ptr<WorkloadGenerator> make_workload(const Scenario& scenario,
                                                 const World& world);

/// Fresh world + workload + policy, ready to step().
std::unique_ptr<Simulation> make_simulation(const Scenario& scenario,
                                            PolicyKind kind,
                                            const RfhPolicy::Options& rfh =
                                                {});

}  // namespace rfh
