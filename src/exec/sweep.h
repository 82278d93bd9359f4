// Deterministic parallel sweep execution.
//
// A sweep is a grid of independent cells — (scenario, policy, seed)
// triples, optionally with per-cell RFH options and failure schedules —
// each of which is one full run_policy() simulation. Cells share nothing
// mutable: every cell builds its own World, workload stream and RNG
// streams forked from its scenario seed, gets its own MetricRegistry and
// trace sink when collection is enabled, and writes only its own result
// slot. The SweepRunner fans cells out with parallel_for_shards, one
// shard per cell on a FIFO ThreadPool (no pool for one job), and each cell
// writes its own result slot, so a parallel sweep is bit-identical to the
// serial one — enforced by
// tests/determinism_test.cpp, which byte-compares sweep_results_json()
// (and per-cell traces and metric dumps) across --jobs values.
//
// Seed-forking rules (DESIGN.md §11): the runner never draws randomness
// itself. Each cell's Simulation forks its subsystem streams
// (workload / policy / failures) from scenario.sim.seed with fixed tags,
// and the ChaosController forks its own stream from the same seed, so
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
  /// Free-form identifier carried into results and JSON ("fig3/flash",
  /// "seed=7", ...). Not required to be unique; cells are keyed by index.
  std::string label;
  Scenario scenario;
  PolicyKind policy = PolicyKind::kRfh;
  RfhPolicy::Options rfh;
  std::vector<FailureEvent> failures;
};

struct SweepCellResult {
  std::size_t index = 0;
  std::string label;
  PolicyKind policy = PolicyKind::kRfh;
  std::uint64_t seed = 0;
  PolicyRun run;
  /// rfh-metrics/1 JSON dump of the cell's own registry (empty unless
  /// SweepOptions::collect_metrics).
  std::string metrics_json;
  /// JSONL event trace from the cell's own sink (empty unless
  /// SweepOptions::collect_traces).
  std::string trace_jsonl;
  /// Causal flight record (obs/timeline.h) of the cell's run: the
  /// store's FNV-1a digest and its JSONL dump (zero/empty unless
  /// SweepOptions::collect_timeline). Byte-identical across --jobs.
  std::uint64_t timeline_digest = 0;
  std::string timeline_jsonl;
};

struct SweepOptions {
  /// Worker threads: 1 (default) runs cells inline on the calling thread
  /// in index order — the serial baseline; 0 asks the hardware
  /// (ThreadPool::default_jobs()); N > 1 uses a pool of N.
  unsigned jobs = 1;
  /// Give each cell its own MetricRegistry and keep its JSON dump.
  bool collect_metrics = false;
  /// Give each cell its own JsonlSink and keep the trace text.
  bool collect_traces = false;
  /// Give each cell its own TimelineStore recorder and keep its digest
  /// and JSONL dump (bounded memory, unlike collect_traces).
  bool collect_timeline = false;
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
  [[nodiscard]] SweepCellResult run_cell(const SweepCell& cell,
                                         std::size_t index) const;

  SweepOptions options_;
};

/// Canonical JSON (schema "rfh-sweep/1") of merged results in cell-index
/// order: label, policy, seed, epochs, faults injected, tail means of the
/// headline series and an FNV-1a digest over every per-epoch metric
/// field. Contains no wall-clock, so serial and parallel runs of the same
/// grid serialize byte-identically.
[[nodiscard]] std::string sweep_results_json(
    std::span<const SweepCellResult> results);

/// FNV-1a digest over the canonical text form of every field of every
/// EpochMetrics in the series (printf %.17g for doubles, decimal for
/// counters) — the series fingerprint the differential tests compare.
[[nodiscard]] std::uint64_t series_digest(std::span<const EpochMetrics> series);

/// The paper's standard comparison — Request, Owner, Random, RFH — as a
/// four-cell sweep. Every run faces the same scenario and failure
/// schedule. jobs: 1 runs the policies inline in that order, 0 uses
/// min(hardware threads, 4), N a pool of N. Results are bit-identical
/// for every jobs value.
[[nodiscard]] ComparativeResult run_comparison(
    const Scenario& scenario, const std::vector<FailureEvent>& failures = {},
    unsigned jobs = 0);

}  // namespace rfh
