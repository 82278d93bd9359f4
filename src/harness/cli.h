// Command-line parsing for experiment drivers (examples/rfh_cli.cpp).
//
// Kept in the library (rather than the example binary) so the flag
// grammar is unit-testable and reusable by downstream tools.
//
// Grammar:
//   --policy=rfh|random|owner|request
//   --workload=uniform|flash|hotspot|stream
//   --epochs=N --seed=N --partitions=N
//   --alpha=F --beta=F --gamma=F --delta=F --mu=F --phi=F
//                                 (Table I thresholds; range-checked:
//                                  0 < alpha < 1, beta > 0, gamma > 0,
//                                  delta >= 0, mu >= 0, 0 < phi <= 1)
//   --redundancy=replica|ec(k,m)  (redundancy scheme; ec needs k >= 2,
//                                  m >= 1, k + m <= 16. replica is the
//                                  default and reproduces the paper)
//   --write-fraction=F            (enables consistency tracking)
//   --arrival-rate=F              (stream only: Poisson mean arrivals per
//                                  epoch; F > 0, default Table I's 300)
//   --queue-cap=N                 (stream only: per-server queue-depth cap
//                                  before backpressure drops; 1..1000000)
//   --service-cv=F                (stream only: service-time coefficient
//                                  of variation for the M/G/c wait
//                                  correction; F >= 0, 1 = exponential)
//   --kill=N@E                    (repeatable: the fault-plan line `crash
//                                  at=E count=N`, appended in flag order)
//   --metric=<name>               (see metric_names())
//   --compare                     (all four policies)
//   --jobs=N|auto                 (worker threads; auto = one per hardware
//                                  thread, 1 = serial. With --compare the
//                                  pool runs policies concurrently; on a
//                                  single-policy run it shards the engine's
//                                  epoch phases (Simulation::set_jobs).
//                                  Results are bit-identical for every N)
//
// Malformed input never asserts or silently clamps: out-of-range values
// and *conflicting* duplicate flags (same flag, different value) yield a
// parse error; --kill stays repeatable by design.
//   --quiet                       (summary line only)
//   --trace-out=FILE              (write a structured event trace; single
//                                  policy runs only)
//   --trace-format=jsonl|chrome   (default jsonl; chrome loads in Perfetto)
//   --trace-filter=A,B,...        (event type names to keep, e.g.
//                                  ReplicaAdded,ActionDropped; default all;
//                                  an unknown name is an error)
//   --metrics-out=FILE            (dump the telemetry registry after the
//                                  run; single policy runs only)
//   --metrics-format=prom|json    (default prom: Prometheus text format)
//   --profile                     (time the epoch phases; prints a
//                                  breakdown table and, with --trace-out,
//                                  emits PhaseSpan slices into the trace;
//                                  single policy runs only)
//   --fault-plan=FILE             (append a fault-plan spec (fault/plan.h)
//                                  to the scenario's plan; it and --kill
//                                  combine with --compare)
//   --check-invariants            (verify the invariant catalogue after
//                                  every epoch and report violations;
//                                  single policy runs only)
//   --slo=SPEC                    (service-level objectives, e.g.
//                                  "avail=0.999,p99=250,burn=2"; see
//                                  telemetry/slo.h for the grammar. The
//                                  runner prints breach episodes after the
//                                  run)
//   --blackbox-out=FILE           (dump the causal flight recorder
//                                  (obs/timeline.h) after the run as a
//                                  JSONL archive, one event per line;
//                                  single policy runs only)
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/runner.h"

namespace rfh {

enum class TraceFormat { kJsonl, kChrome };
enum class MetricsFormat { kProm, kJson };

struct CliOptions {
  PolicyKind policy = PolicyKind::kRfh;
  bool compare = false;
  /// Worker threads for --compare sweeps (exec/sweep.h semantics:
  /// 0 = hardware, 1 = serial). On single-policy runs an explicit --jobs
  /// lands in scenario.engine_jobs instead, sharding the epoch phases.
  /// Purely a scheduling knob — outputs are bit-identical for every value.
  unsigned jobs = 0;
  bool quiet = false;
  std::string metric = "utilization";
  Scenario scenario = Scenario::paper_random_query();
  /// Trace destination; empty disables tracing.
  std::string trace_out;
  TraceFormat trace_format = TraceFormat::kJsonl;
  /// Comma-separated event type allow-list (empty keeps everything).
  std::string trace_filter;
  /// Telemetry-registry dump destination; empty disables the registry.
  std::string metrics_out;
  MetricsFormat metrics_format = MetricsFormat::kProm;
  /// Wall-clock phase profiling (see telemetry/profiler.h).
  bool profile = false;
  /// Path of the --fault-plan file (empty without one; its lines and the
  /// --kill crash lines land in scenario.fault_plan).
  std::string fault_plan_path;
  /// Run the InvariantChecker (record mode) over every epoch.
  bool check_invariants = false;
  /// Causal flight-record dump destination; empty disables the recorder.
  /// (The parsed --slo spec itself lands in scenario.slo.)
  std::string blackbox_out;
};

struct CliParseResult {
  bool ok = false;
  std::string error;  // set when !ok
  CliOptions options;
};

/// Parse the argument list (argv[1..]); never aborts — malformed input
/// yields ok=false with a human-readable error.
CliParseResult parse_cli(std::span<const char* const> args);

/// --kill=N@E (rfh_cli, rfh_blackbox) as the line `crash at=E count=N`;
/// nullopt unless N > 0 and both fit 32 bits.
std::optional<FaultEvent> parse_kill(std::string_view text);
inline constexpr std::string_view kKillError =
    "--kill expects N@E: a positive 32-bit count N and a 32-bit epoch E";

/// The --jobs grammar shared by rfh_cli and the bench drivers: "auto"
/// (0, one worker per hardware thread) or an integer in [1, 1024].
/// Anything else — 0, negatives, trailing junk — yields nullopt.
std::optional<unsigned> parse_jobs(std::string_view text);

/// The error message for a value parse_jobs() rejects.
inline constexpr std::string_view kJobsError =
    "--jobs expects an integer in [1, 1024] or 'auto' (one worker per "
    "hardware thread)";

/// Extract the named per-epoch metric; sets *ok=false (and returns 0) for
/// an unknown name.
double metric_value(const EpochMetrics& m, const std::string& metric,
                    bool* ok);

/// All metric names accepted by --metric.
std::vector<std::string> metric_names();

}  // namespace rfh
