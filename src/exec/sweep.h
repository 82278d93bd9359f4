// Deterministic parallel sweep execution.
//
// A sweep is a grid of independent cells — (scenario, policy, seed)
// triples, optionally with per-cell RFH options and extra fault events —
// each of which is one full run_policy() simulation. Cells share nothing
// mutable: every cell builds its own World, workload stream and RNG
// streams forked from its scenario seed, and writes only its own result
// slot. The SweepRunner fans cells out with parallel_for_shards, one
// shard per cell on a FIFO ThreadPool (no pool for one job), so a
// parallel sweep is bit-identical to the serial one — enforced by
// tests/determinism_test.cpp, which compares every cell's series digest,
// kill order, fault counts and SLO breaches across --jobs values. A caller
// that wants a cell's trace, metrics or flight record attaches them
// through run_policy itself.
//
// Seed-forking rules (DESIGN.md §11): the runner never draws randomness
// itself. Each cell's Simulation forks its workload and policy streams
// from scenario.sim.seed with fixed tags, and the ChaosController (every
// fault victim's picker) forks its own stream from that seed, so
// two cells with equal scenarios produce equal runs no matter which
// worker executes them or in what order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "harness/runner.h"

namespace rfh {

class MetricRegistry;

/// One independent sweep cell.
struct SweepCell {
  /// Free-form identifier carried into the result ("fig3/flash",
  /// "seed=7", ...). Not required to be unique; cells are keyed by index.
  std::string label;
  Scenario scenario;
  PolicyKind policy = PolicyKind::kRfh;
  RfhPolicy::Options rfh;
  /// Fault events run_policy appends after scenario.fault_plan.
  FaultPlan failures;
};

struct SweepCellResult {
  std::size_t index = 0;
  std::string label;
  PolicyKind policy = PolicyKind::kRfh;
  std::uint64_t seed = 0;
  PolicyRun run;
};

struct SweepOptions {
  /// Worker threads: 1 (default) runs cells inline on the calling thread
  /// in index order — the serial baseline; 0 asks the hardware
  /// (ThreadPool::default_jobs()); N > 1 uses a pool of N.
  unsigned jobs = 1;
  /// Sweep-level telemetry (rfh_sweep_* / rfh_pool_*); optional, bumped
  /// after the fan-out completes so it never races cell execution.
  MetricRegistry* registry = nullptr;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Execute every cell and return results in cell-index order. A cell
  /// that throws rethrows here (from the lowest-index failing cell).
  [[nodiscard]] std::vector<SweepCellResult> run(
      std::span<const SweepCell> cells) const;

  /// The thread count run() will actually use.
  [[nodiscard]] unsigned effective_jobs() const noexcept;

 private:
  SweepOptions options_;
};

/// FNV-1a digest over the canonical text form of every field of every
/// EpochMetrics in the series (printf %.17g for doubles, decimal for
/// counters) — the series fingerprint the differential tests compare.
[[nodiscard]] std::uint64_t series_digest(std::span<const EpochMetrics> series);

/// The paper's standard comparison — Request, Owner, Random, RFH — as a
/// four-cell sweep. Every run faces the same scenario, fault plan
/// included. jobs: 1 runs the policies inline in that order, 0 uses
/// min(hardware threads, 4), N a pool of N. Results are bit-identical
/// for every jobs value.
[[nodiscard]] ComparativeResult run_comparison(const Scenario& scenario,
                                               unsigned jobs = 0);

}  // namespace rfh
