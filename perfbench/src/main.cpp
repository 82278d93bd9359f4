// End-to-end and per-layer benchmark of the RFH simulator.
//
// Calls only the library's public API (build_*_world, Simulation,
// ChaosController, StreamSimulator, InvariantChecker, MetricsCollector,
// run_policy, SweepRunner) and times each call from here. One process
// runs one workload for one seed and prints one JSON object on stdout;
// perfbench/run.py builds this binary, checks the digests it reports
// against the recorded ones and prints the benchmark's result line.
//
//   rfh_perfbench --workload <steady_100k|churn_stream_10k|paper_sweep>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Every timed epoch runs twice: once on a serial engine and once with two
// workers, each on its own simulation set up the same way and stepped in
// turn, so the two passes must report byte-identical per-epoch digests.
// All times are host wall-clock; every simulated quantity is
// deterministic for a seed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "core/rfh_policy.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "fault/chaos.h"
#include "fault/invariants.h"
#include "fault/plan.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "metrics/collector.h"
#include "obs/events.h"
#include "obs/timeline.h"
#include "sim/engine.h"
#include "stream/stream_sim.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "topology/world.h"
#include "workload/generator.h"

namespace {

using rfh::Epoch;
using rfh::EpochMetrics;
using rfh::EpochReport;
using rfh::Phase;
using rfh::Simulation;
using Clock = std::chrono::steady_clock;

constexpr unsigned kParallelJobs = 2;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Host time of one timed round for the e2e throughput metrics. A round
/// is `kinds` units (one epoch; or a paper chunk's cells or cell groups),
/// and unit k of round r is times[r * kinds + k]; the result sums, over
/// the kinds, the fastest run of each. Interference from other tenants of
/// the VM's host only ever adds time, in spells of seconds that slow the
/// host by up to 1.5x; over most sets of runs the fastest unit repeated
/// better than the median or a low quantile (README.md, "Steadiness").
double fastest_round_ms(const std::vector<double>& times, std::size_t kinds) {
  double total = 0.0;
  for (std::size_t k = 0; k < kinds && k < times.size(); ++k) {
    double best = times[k];
    for (std::size_t i = k; i < times.size(); i += kinds) {
      best = std::min(best, times[i]);
    }
    total += best;
  }
  return total;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }


/// VmHWM / VmRSS from /proc/self/status, MB (0 when unavailable).
double proc_status_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtod(line.c_str() + key_len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

// --- per-epoch output digest ----------------------------------------------

void fnv_bytes(std::uint64_t& hash, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
}

void fnv_double(std::uint64_t& hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  fnv_bytes(hash, &bits, sizeof bits);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Folds one epoch's simulated outputs into `hash`: utilization,
/// unserved, path length, latency, replica census and, when present, the
/// stream layer's accounting and tail latency.
void digest_epoch(std::uint64_t& hash, const EpochMetrics& m) {
  fnv_double(hash, m.utilization);
  fnv_double(hash, m.unserved_fraction);
  fnv_double(hash, m.path_length);
  fnv_double(hash, m.latency_mean_ms);
  fnv_double(hash, m.latency_p99_ms);
  const std::uint64_t replicas = m.total_replicas;
  fnv_bytes(hash, &replicas, sizeof replicas);
  fnv_double(hash, m.stream_arrivals);
  fnv_double(hash, m.stream_served);
  fnv_double(hash, m.stream_blocked);
  fnv_double(hash, m.stream_dropped);
  fnv_double(hash, m.stream_p99_ms);
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// --- bench-side spans ------------------------------------------------------

/// Host time and heap allocations attributed to one public call.
struct CallStats {
  double ms = 0.0;
  std::uint64_t allocs = 0;
};

/// Times one call into `stats`; a null `stats` records nothing.
class Span {
 public:
  explicit Span(CallStats* stats) noexcept : stats_(stats) {
    if (stats_ != nullptr) {
      allocs_ = perfbench::allocations();
      start_ = Clock::now();
    }
  }
  ~Span() {
    if (stats_ != nullptr) {
      stats_->ms += ms_since(start_);
      stats_->allocs += perfbench::allocations() - allocs_;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  CallStats* stats_;
  std::uint64_t allocs_ = 0;
  Clock::time_point start_{};
};

/// The public calls one closed-loop epoch makes, traced epochs only.
struct EpochCalls {
  CallStats chaos;
  CallStats step;
  CallStats invariants;
  CallStats stream;
  CallStats collect;
};

// --- result document -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed pass's per-unit outcome, for run.py's output check. A unit
/// is one epoch (large workloads) or one sweep cell (paper_sweep), and
/// `weights` counts the timed epochs it stands for.
struct PassCheck {
  std::vector<double> ms;
  std::vector<std::uint64_t> digests;
  std::vector<std::size_t> violations;
  std::vector<std::uint64_t> weights;
};

struct Result {
  std::vector<Metric> metrics;
  PassCheck serial;
  PassCheck parallel;
  std::size_t setup_violations = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void write_pass(std::ostream& out, const PassCheck& pass) {
  out << "{\"digests\":[";
  for (std::size_t i = 0; i < pass.digests.size(); ++i) {
    if (i > 0) out << ',';
    write_string(out, hex(pass.digests[i]));
  }
  out << "],\"violations\":[";
  for (std::size_t i = 0; i < pass.violations.size(); ++i) {
    if (i > 0) out << ',';
    out << pass.violations[i];
  }
  out << "],\"weights\":[";
  for (std::size_t i = 0; i < pass.weights.size(); ++i) {
    if (i > 0) out << ',';
    out << pass.weights[i];
  }
  out << "],\"ms\":[";
  char num[32];
  for (std::size_t i = 0; i < pass.ms.size(); ++i) {
    if (i > 0) out << ',';
    std::snprintf(num, sizeof num, "%.6f", pass.ms[i]);
    out << num;
  }
  out << "]}";
}
void write_result(std::ostream& out, const std::string& workload,
                  std::uint64_t seed, double seconds, bool trace,
                  const Result& result) {
  char num[64];
  out << "{\"workload\":";
  write_string(out, workload);
  out << ",\"seed\":" << seed;
  std::snprintf(num, sizeof num, "%.17g", seconds);
  out << ",\"seconds\":" << num << ",\"trace\":" << (trace ? 1 : 0);
  out << ",\"meta\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":";
  write_string(out, cpu_model());
  out << ",\"compiler\":";
  write_string(out, RFH_BENCH_COMPILER);
  out << ",\"build\":";
  write_string(out, RFH_BENCH_FLAGS);
  out << ",\"parallel_jobs\":" << kParallelJobs << "},\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out << ',';
    write_string(out, m.name);
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << ":{\"value\":" << num << ",\"unit\":";
    write_string(out, m.unit);
    out << '}';
  }
  out << "},\"check\":{\"serial\":";
  write_pass(out, result.serial);
  out << ",\"parallel\":";
  write_pass(out, result.parallel);
  out << ",\"setup_violations\":" << result.setup_violations << "}}\n";
}

// --- per-layer metric helpers ---------------------------------------------

/// Phase names as reported, in rfh::Phase order (the engine's five
/// step() phases).
struct PhaseMetric {
  Phase phase;
  const char* name;
  bool sharded;  // fanned across the pool by Simulation::set_jobs
};
constexpr PhaseMetric kPhaseMetrics[] = {
    {Phase::kWorkloadGen, "workload.gen", false},
    {Phase::kRouting, "routing.propagate", true},
    {Phase::kStatsUpdate, "sim.stats", true},
    {Phase::kPolicyDecide, "core.decide", true},
    {Phase::kActionApply, "sim.apply", false},
};

double phase_ms_per_epoch(const rfh::PhaseProfiler& profiler, Phase phase,
                          double epochs) {
  return ratio(profiler.totals(phase).total_ms, epochs);
}

double counter(const rfh::MetricRegistry& registry, const char* name,
               const rfh::MetricLabels& labels = {}) {
  const rfh::Counter* c = registry.find_counter(name, labels);
  return c == nullptr ? 0.0 : c->value();
}

/// Registry counters a traced pass turns into per-layer ratios.
struct CounterSnapshot {
  double memo_hits = 0.0;
  double memo_misses = 0.0;
  double routes = 0.0;
  double stages = 0.0;
  double proposed = 0.0;
  double applied = 0.0;

  static CounterSnapshot take(const rfh::MetricRegistry& registry) {
    CounterSnapshot s;
    s.memo_hits = counter(registry, "rfh_router_memo_hits_total");
    s.memo_misses = counter(registry, "rfh_router_memo_misses_total");
    s.routes = counter(registry, "rfh_router_routes_total");
    s.stages = counter(registry, "rfh_router_route_stages_total");
    for (std::size_t k = 0; k < 3; ++k) {
      const rfh::MetricLabels kind = {
          {"kind", rfh::action_kind_name(static_cast<rfh::ActionKind>(k))}};
      s.proposed += counter(registry, "rfh_policy_proposed_total", kind);
      s.applied += counter(registry, "rfh_actions_applied_total", kind);
    }
    return s;
  }

  CounterSnapshot operator-(const CounterSnapshot& o) const {
    return CounterSnapshot{memo_hits - o.memo_hits,
                           memo_misses - o.memo_misses, routes - o.routes,
                           stages - o.stages,          proposed - o.proposed,
                           applied - o.applied};
  }
};

/// Per-epoch tallies of the engine's drop reasons and starved repairs.
struct DropTally {
  std::array<double, rfh::kDropReasonCount> by_reason{};
  double repairs_starved = 0.0;
  double epochs = 0.0;

  void add(const EpochMetrics& m) {
    const std::uint32_t reasons[rfh::kDropReasonCount] = {
        m.dropped_bandwidth, m.dropped_storage_cap, m.dropped_node_cap,
        m.dropped_dead_target, m.dropped_invalid, m.dropped_zone_diversity,
        m.dropped_unknown};
    for (std::size_t r = 0; r < rfh::kDropReasonCount; ++r) {
      by_reason[r] += reasons[r];
    }
    repairs_starved += m.repairs_starved;
    epochs += 1.0;
  }
};

/// Everything a traced run reports beyond the e2e metrics; fields a
/// workload never exercises stay zero.
struct LayerReport {
  double build_world_ms = 0.0;
  double construct_ms = 0.0;
  double first_epoch_ms = 0.0;
  double rss_after_setup_mb = 0.0;
  double build_world_allocs = 0.0;
  double construct_allocs = 0.0;
  double first_epoch_allocs = 0.0;
  double setup_alloc_mismatches = 0.0;
  std::array<double, std::size(kPhaseMetrics)> phase_ms{};
  std::array<double, std::size(kPhaseMetrics)> phase_ms_j2{};
  double epoch_ms = 0.0;
  double epoch_ms_j2 = 0.0;
  double serial_frac = 0.0;
  double chaos_ms = 0.0;
  double invariants_ms = 0.0;
  double stream_ms = 0.0;
  double collect_ms = 0.0;
  double harness_self_ms = 0.0;
  double step_allocs = 0.0;
  double chaos_allocs = 0.0;
  double invariants_allocs = 0.0;
  double stream_allocs = 0.0;
  double collect_allocs = 0.0;
  double run_policy_allocs = 0.0;
  double pool_tasks_per_epoch = 0.0;
  double steal_ratio = 0.0;
  CounterSnapshot counts;
  double counted_epochs = 0.0;
  DropTally drops;
  double recorder_bytes = 0.0;
  double overhead_frac = 0.0;

  void emit(Result& out) const {
    out.add("topology.build_world_ms", build_world_ms, "ms");
    out.add("sim.construct_ms", construct_ms, "ms");
    out.add("sim.first_epoch_ms", first_epoch_ms, "ms");
    out.add("sim.rss_after_setup_mb", rss_after_setup_mb, "MB");
    out.add("topology.build_world.allocs", build_world_allocs, "allocs");
    out.add("sim.construct.allocs", construct_allocs, "allocs");
    out.add("sim.first_epoch.allocs", first_epoch_allocs, "allocs");
    out.add("alloc.setup_mismatches", setup_alloc_mismatches, "count");
    for (std::size_t i = 0; i < std::size(kPhaseMetrics); ++i) {
      const std::string base = kPhaseMetrics[i].name;
      out.add(base + "_ms", phase_ms[i], "ms/epoch");
      out.add(base + "_ms_j2", phase_ms_j2[i], "ms/epoch");
    }
    out.add("fault.chaos_ms", chaos_ms, "ms/epoch");
    out.add("fault.invariants_ms", invariants_ms, "ms/epoch");
    out.add("stream.process_ms", stream_ms, "ms/epoch");
    out.add("metrics.collect_ms", collect_ms, "ms/epoch");
    out.add("harness.self_ms", harness_self_ms, "ms/epoch");
    out.add("sim.step.allocs_per_epoch", step_allocs, "allocs/epoch");
    out.add("fault.chaos.allocs_per_epoch", chaos_allocs, "allocs/epoch");
    out.add("fault.invariants.allocs_per_epoch", invariants_allocs,
            "allocs/epoch");
    out.add("stream.process.allocs_per_epoch", stream_allocs,
            "allocs/epoch");
    out.add("metrics.collect.allocs_per_epoch", collect_allocs,
            "allocs/epoch");
    out.add("harness.run_policy.allocs_per_epoch", run_policy_allocs,
            "allocs/epoch");
    for (std::size_t i = 0; i < std::size(kPhaseMetrics); ++i) {
      out.add(std::string("exec.speedup.") + kPhaseMetrics[i].name,
              ratio(phase_ms[i], phase_ms_j2[i]), "ratio");
    }
    out.add("exec.speedup.epoch", ratio(epoch_ms, epoch_ms_j2), "ratio");
    out.add("exec.serial_frac", serial_frac, "ratio");
    out.add("exec.pool_tasks_per_epoch", pool_tasks_per_epoch,
            "tasks/epoch");
    out.add("exec.steal_ratio", steal_ratio, "ratio");
    out.add("routing.memo_hit_ratio",
            ratio(counts.memo_hits, counts.memo_hits + counts.memo_misses),
            "ratio");
    out.add("routing.stages_per_route", ratio(counts.stages, counts.routes),
            "stages/route");
    out.add("core.proposed_per_epoch", ratio(counts.proposed, counted_epochs),
            "actions/epoch");
    out.add("sim.applied_ratio", ratio(counts.applied, counts.proposed),
            "ratio");
    for (std::size_t r = 0; r < rfh::kDropReasonCount; ++r) {
      out.add(std::string("sim.dropped_by_reason.") +
                  rfh::drop_reason_name(static_cast<rfh::DropReason>(r)),
              ratio(drops.by_reason[r], drops.epochs), "actions/epoch");
    }
    out.add("sim.repairs_starved_per_epoch",
            ratio(drops.repairs_starved, drops.epochs), "repairs/epoch");
    out.add("obs.recorder_bytes", recorder_bytes, "bytes");
    out.add("trace.overhead_frac", overhead_frac, "fraction");
  }
};

// --- large synthetic worlds (steady_100k, churn_stream_10k) ---------------

struct LargeSpec {
  std::uint32_t dcs = 0;
  /// Epochs stepped during set-up, epoch 0 (initial placement) included.
  Epoch warmup = 0;
  /// Timed epochs per pass for each second of --seconds (two passes).
  double epochs_per_second = 0.0;
  /// Churn faults, open-loop stream arrivals, invariants, flight recorder
  /// and registry attached.
  bool churn_stream = false;
};

/// 100 servers per datacenter; 8 partitions and 30 queries/epoch per DC.
constexpr std::uint32_t kServersPerDc = 100;
constexpr std::uint32_t kPartitionsPerDc = 8;
constexpr double kQueriesPerDc = 30.0;

/// One simulation of a large world with the layers its workload attaches.
class LargeRun {
 public:
  struct EpochOut {
    /// Host time of the epoch minus the InvariantChecker calls, which are
    /// the benchmark's output check (timed on their own as
    /// fault.invariants_ms).
    double ms = 0.0;
    double check_ms = 0.0;
    EpochMetrics metrics;
    std::size_t violations = 0;
  };

  /// Builds the world and simulation and steps the warm-up epochs; all of
  /// it is set-up time. `registry` attaches a MetricRegistry even when
  /// the workload itself does not (traced runs read counters from it);
  /// `check` attaches the workload's InvariantChecker, if it has one.
  LargeRun(const LargeSpec& spec, std::uint64_t seed, bool registry,
           bool check) {
    const auto setup_start = Clock::now();
    rfh::WorldOptions world_options;
    world_options.rooms_per_datacenter = 2;
    world_options.racks_per_room = 5;
    world_options.servers_per_rack = 10;
    world_options.partitions_hint = kPartitionsPerDc * spec.dcs;
    world_options.seed = seed;
    // Log-spaced chords, as bench_scalability: O(log n) diameter.
    std::vector<std::uint32_t> strides;
    for (std::uint32_t s = 8; s < spec.dcs; s *= 8) strides.push_back(s);

    rfh::SimConfig config;
    config.partitions = kPartitionsPerDc * spec.dcs;
    config.seed = seed;
    rfh::WorkloadParams params;
    params.partitions = config.partitions;
    params.datacenters = spec.dcs;
    params.mean_queries_per_epoch = kQueriesPerDc * spec.dcs;
    params.zipf_exponent = 0.8;

    std::optional<rfh::World> world;
    {
      Span span(&build_world_);
      world.emplace(
          rfh::build_synthetic_world(spec.dcs, world_options, strides));
    }
    {
      Span span(&construct_);
      sim_ = std::make_unique<Simulation>(
          std::move(*world), config,
          std::make_unique<rfh::UniformWorkload>(params),
          std::make_unique<rfh::RfhPolicy>());
    }
    if (registry || spec.churn_stream) {
      registry_ = std::make_unique<rfh::MetricRegistry>();
      sim_->set_telemetry(registry_.get());
    }
    if (spec.churn_stream) {
      recorder_ = std::make_unique<rfh::TimelineStore>(config.partitions);
      sim_->events().add_sink(recorder_.get());
      if (check) checker_.emplace(rfh::InvariantChecker::Mode::kRecord);
      stream_config_.arrival_rate = params.mean_queries_per_epoch;
      stream_.emplace(sim_->world(), registry_.get(), stream_config_, seed);
      sim_->set_flow_log(&stream_->flow_log());
      // Every epoch kills 0.5% of the servers and revives as many of the
      // longest-dead victims.
      const std::uint32_t churn = spec.dcs * kServersPerDc / 200;
      rfh::FaultEvent event;
      event.kind = rfh::FaultKind::kChurn;
      event.at = 1;
      event.until = 1u << 30;
      event.period = 1;
      event.kill = churn;
      event.recover = churn;
      rfh::FaultPlan plan;
      plan.add(event);
      chaos_.emplace(plan, seed);
    }
    // sim.first_epoch_* is epoch 0's step() alone (initial placement).
    EpochCalls first_calls;
    const EpochOut first = epoch(&first_calls);
    first_epoch_ = first_calls.step;
    setup_violations_ += first.violations;
    double check_ms = first.check_ms;
    for (Epoch e = 1; e < spec.warmup; ++e) {
      const EpochOut warm = epoch(nullptr);
      setup_violations_ += warm.violations;
      check_ms += warm.check_ms;
    }
    setup_ms_ = ms_since(setup_start) - check_ms;
  }

  /// One closed-loop epoch: chaos, step, invariants, stream, collect.
  /// `calls` (null = untraced) receives each call's time and allocations.
  EpochOut epoch(EpochCalls* calls) {
    EpochOut out;
    const Epoch e = next_epoch_++;
    const auto start = Clock::now();
    if (chaos_) {
      Span span(calls ? &calls->chaos : nullptr);
      chaos_->before_epoch(*sim_, e);
    }
    EpochReport report;
    {
      Span span(calls ? &calls->step : nullptr);
      report = sim_->step();
    }
    if (checker_) {
      const auto check_start = Clock::now();
      Span span(calls ? &calls->invariants : nullptr);
      out.violations += checker_->check_epoch(*sim_, report);
      out.check_ms += ms_since(check_start);
    }
    std::optional<rfh::StreamEpochStats> stream;
    if (stream_) {
      Span span(calls ? &calls->stream : nullptr);
      stream = stream_->process_epoch(*sim_, report);
    }
    if (checker_ && stream) {
      const auto check_start = Clock::now();
      Span span(calls ? &calls->invariants : nullptr);
      out.violations += checker_->check_stream(*stream, stream_config_,
                                               report.total_queries);
      out.check_ms += ms_since(check_start);
    }
    {
      Span span(calls ? &calls->collect : nullptr);
      out.metrics = collector_.collect(*sim_, report);
    }
    if (stream) {
      out.metrics.stream_arrivals = stream->arrivals;
      out.metrics.stream_served = stream->served;
      out.metrics.stream_blocked = stream->blocked;
      out.metrics.stream_dropped = stream->dropped;
      out.metrics.stream_max_queue_depth = stream->max_queue_depth;
      out.metrics.stream_p99_ms = stream->p99_ms;
    }
    out.ms = ms_since(start) - out.check_ms;
    return out;
  }

  [[nodiscard]] Simulation& sim() noexcept { return *sim_; }
  [[nodiscard]] const Simulation& sim() const noexcept { return *sim_; }
  [[nodiscard]] const rfh::MetricRegistry* registry() const noexcept {
    return registry_.get();
  }
  [[nodiscard]] const rfh::TimelineStore* recorder() const noexcept {
    return recorder_.get();
  }
  [[nodiscard]] double setup_ms() const noexcept { return setup_ms_; }
  [[nodiscard]] std::size_t setup_violations() const noexcept {
    return setup_violations_;
  }
  [[nodiscard]] const CallStats& build_world() const noexcept {
    return build_world_;
  }
  [[nodiscard]] const CallStats& construct() const noexcept {
    return construct_;
  }
  [[nodiscard]] const CallStats& first_epoch() const noexcept {
    return first_epoch_;
  }

 private:
  // Declared before sim_: the engine holds pointers to all three.
  std::unique_ptr<rfh::MetricRegistry> registry_;
  std::unique_ptr<rfh::TimelineStore> recorder_;
  std::optional<rfh::InvariantChecker> checker_;
  std::unique_ptr<Simulation> sim_;
  std::optional<rfh::ChaosController> chaos_;
  rfh::StreamConfig stream_config_;
  std::optional<rfh::StreamSimulator> stream_;
  rfh::MetricsCollector collector_;
  Epoch next_epoch_ = 0;
  double setup_ms_ = 0.0;
  std::size_t setup_violations_ = 0;
  CallStats build_world_;
  CallStats construct_;
  CallStats first_epoch_;
};

/// How a pass treats its timed epochs.
enum class PassMode {
  kUntraced,   // e2e: nothing attached beyond the workload's own layers
  kAlternate,  // traced run, serial: odd epochs traced, even untraced
  kTraced,     // traced run, j2: every epoch profiled
};

/// One simulation's timed epochs and what the run reports from them.
class TimedPass {
 public:
  /// Sets up the simulation (set-up time, allocation-counted in traced
  /// runs). The serial pass carries the invariant checks; the j2 pass is
  /// held to the serial pass's digests instead.
  TimedPass(const LargeSpec& spec, std::uint64_t seed, unsigned jobs,
            PassMode mode)
      : mode_(mode), run_(make_run(spec, seed, jobs, mode)) {
    run_->sim().set_jobs(jobs);
    if (run_->sim().pool() != nullptr) {
      pool_before_ = run_->sim().pool()->stats();
    }
    if (run_->registry() != nullptr) {
      counts_before_ = CounterSnapshot::take(*run_->registry());
    }
    if (mode_ == PassMode::kTraced) run_->sim().set_profiler(&profiler_);
  }

  void timed_epoch(Epoch index) {
    const bool traced = mode_ == PassMode::kTraced ||
                        (mode_ == PassMode::kAlternate && index % 2 == 1);
    const bool toggle = mode_ == PassMode::kAlternate && traced;
    if (toggle) {
      run_->sim().set_profiler(&profiler_);
      perfbench::set_alloc_counting(true);
    }
    const LargeRun::EpochOut epoch = run_->epoch(traced ? &calls_ : nullptr);
    if (toggle) {
      perfbench::set_alloc_counting(false);
      run_->sim().set_profiler(nullptr);
    }
    if (mode_ == PassMode::kAlternate) {
      (traced ? traced_ms_ : untraced_ms_).push_back(epoch.ms);
    }
    if (traced) {
      // Close the profiler's epoch window here, so it never spans the
      // other pass's interleaved epoch.
      profiler_.finalize();
      traced_epochs_ += 1.0;
      traced_wall_ms_ += epoch.ms;
    }
    unserved_.push_back(epoch.metrics.unserved_fraction);
    drops_.add(epoch.metrics);
    std::uint64_t digest = kFnvBasis;
    digest_epoch(digest, epoch.metrics);
    check_.ms.push_back(epoch.ms);
    check_.digests.push_back(digest);
    check_.violations.push_back(epoch.violations);
    check_.weights.push_back(1);
  }

  [[nodiscard]] const LargeRun& run() const noexcept { return *run_; }
  [[nodiscard]] const std::vector<double>& epoch_ms() const noexcept {
    return check_.ms;
  }
  [[nodiscard]] double mean_unserved() const { return mean(unserved_); }
  [[nodiscard]] PassCheck take_check() { return std::move(check_); }

  /// The serial (alternating) pass owns the set-up, call, allocation and
  /// count metrics.
  void report_serial(LayerReport& layers) {
    layers.build_world_ms = run_->build_world().ms;
    layers.construct_ms = run_->construct().ms;
    layers.first_epoch_ms = run_->first_epoch().ms;
    layers.build_world_allocs =
        static_cast<double>(run_->build_world().allocs);
    layers.construct_allocs = static_cast<double>(run_->construct().allocs);
    layers.first_epoch_allocs =
        static_cast<double>(run_->first_epoch().allocs);
    for (std::size_t i = 0; i < std::size(kPhaseMetrics); ++i) {
      layers.phase_ms[i] = phase_ms_per_epoch(
          profiler_, kPhaseMetrics[i].phase, traced_epochs_);
    }
    layers.epoch_ms = median(traced_ms_);
    layers.chaos_ms = ratio(calls_.chaos.ms, traced_epochs_);
    layers.invariants_ms = ratio(calls_.invariants.ms, traced_epochs_);
    layers.stream_ms = ratio(calls_.stream.ms, traced_epochs_);
    layers.collect_ms = ratio(calls_.collect.ms, traced_epochs_);
    const auto per_epoch = [this](const CallStats& call) {
      return ratio(static_cast<double>(call.allocs), traced_epochs_);
    };
    layers.step_allocs = per_epoch(calls_.step);
    layers.chaos_allocs = per_epoch(calls_.chaos);
    layers.invariants_allocs = per_epoch(calls_.invariants);
    layers.stream_allocs = per_epoch(calls_.stream);
    layers.collect_allocs = per_epoch(calls_.collect);
    layers.counts = CounterSnapshot::take(*run_->registry()) - counts_before_;
    layers.counted_epochs = static_cast<double>(check_.ms.size());
    layers.drops = drops_;
    if (run_->recorder() != nullptr) {
      layers.recorder_bytes =
          static_cast<double>(run_->recorder()->approx_bytes());
    }
    layers.overhead_frac = 1.0 - ratio(median(untraced_ms_), median(traced_ms_));
  }

  /// The j2 pass owns the parallel metrics; call after report_serial.
  void report_parallel(LayerReport& layers) {
    // The set-up of the j2 simulation repeats the serial one exactly, so
    // its allocation counts must too.
    const auto differs = [](const CallStats& call, double serial_allocs) {
      return static_cast<double>(call.allocs) != serial_allocs ? 1.0 : 0.0;
    };
    layers.setup_alloc_mismatches =
        differs(run_->build_world(), layers.build_world_allocs) +
        differs(run_->construct(), layers.construct_allocs) +
        differs(run_->first_epoch(), layers.first_epoch_allocs);
    double sharded_ms = 0.0;
    for (std::size_t i = 0; i < std::size(kPhaseMetrics); ++i) {
      layers.phase_ms_j2[i] = phase_ms_per_epoch(
          profiler_, kPhaseMetrics[i].phase, traced_epochs_);
      if (kPhaseMetrics[i].sharded) sharded_ms += layers.phase_ms_j2[i];
    }
    layers.epoch_ms_j2 = median(check_.ms);
    layers.serial_frac =
        1.0 - ratio(sharded_ms * traced_epochs_, traced_wall_ms_);
    if (run_->sim().pool() != nullptr) {
      const rfh::ThreadPool::Stats pool = run_->sim().pool()->stats();
      const double executed =
          static_cast<double>(pool.executed - pool_before_.executed);
      layers.pool_tasks_per_epoch = ratio(executed, traced_epochs_);
      layers.steal_ratio = ratio(
          static_cast<double>(pool.stolen - pool_before_.stolen), executed);
    }
  }

 private:
  static std::unique_ptr<LargeRun> make_run(const LargeSpec& spec,
                                            std::uint64_t seed, unsigned jobs,
                                            PassMode mode) {
    const bool traced = mode != PassMode::kUntraced;
    perfbench::set_alloc_counting(traced);
    auto run = std::make_unique<LargeRun>(spec, seed, traced, jobs == 1);
    perfbench::set_alloc_counting(false);
    return run;
  }

  PassMode mode_;
  // Declared before run_: the simulation holds a pointer to it.
  rfh::PhaseProfiler profiler_;
  std::unique_ptr<LargeRun> run_;
  EpochCalls calls_;
  DropTally drops_;
  rfh::ThreadPool::Stats pool_before_{};
  CounterSnapshot counts_before_;
  double traced_epochs_ = 0.0;
  double traced_wall_ms_ = 0.0;
  std::vector<double> traced_ms_;    // kAlternate: traced epochs only
  std::vector<double> untraced_ms_;  // kAlternate: untraced epochs only
  std::vector<double> unserved_;
  PassCheck check_;
};

void run_large(const LargeSpec& spec, std::uint64_t seed, double seconds,
               bool trace, Result& result) {
  const auto timed = static_cast<Epoch>(
      std::max(4.0, std::ceil(seconds * spec.epochs_per_second)));
  // Two identically set-up simulations, serial and j2, stepped in turn so
  // that both passes sample the host over the whole run.
  TimedPass serial(spec, seed, 1,
                   trace ? PassMode::kAlternate : PassMode::kUntraced);
  const double rss_after_setup = proc_status_mb("VmRSS");
  TimedPass parallel(spec, seed, kParallelJobs,
                     trace ? PassMode::kTraced : PassMode::kUntraced);
  for (Epoch e = 0; e < timed; ++e) {
    serial.timed_epoch(e);
    parallel.timed_epoch(e);
  }
  result.setup_violations =
      serial.run().setup_violations() + parallel.run().setup_violations();
  if (trace) {
    LayerReport layers;
    serial.report_serial(layers);
    parallel.report_parallel(layers);
    layers.rss_after_setup_mb = rss_after_setup;
    layers.emit(result);
  } else {
    result.add("setup_s",
               median({serial.run().setup_ms(), parallel.run().setup_ms()}) /
                   1000.0,
               "s");
    result.add("epochs_per_s",
               1000.0 / fastest_round_ms(serial.epoch_ms(), 1), "1/s");
    result.add("epochs_per_s_j2",
               1000.0 / fastest_round_ms(parallel.epoch_ms(), 1), "1/s");
    result.add("peak_rss_mb", proc_status_mb("VmHWM"), "MB");
    result.add("unserved_frac", serial.mean_unserved(), "fraction");
  }
  result.serial = serial.take_check();
  result.parallel = parallel.take_check();
}

// --- paper_sweep -----------------------------------------------------------

constexpr rfh::PolicyKind kPaperPolicies[] = {
    rfh::PolicyKind::kRequest, rfh::PolicyKind::kOwner,
    rfh::PolicyKind::kRandom, rfh::PolicyKind::kRfh};
/// Cell seeds per second of --seconds; each seed is one full paper
/// comparison (4 policies x {random query, flash crowd}).
constexpr double kPaperSeedsPerSecond = 4.0;
constexpr int kPaperSetupRepeats = 5;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One seed's eight cells.
std::vector<rfh::SweepCell> paper_chunk(std::uint64_t seed) {
  std::vector<rfh::SweepCell> cells;
  for (int s = 0; s < 2; ++s) {
    rfh::Scenario scenario = s == 0 ? rfh::Scenario::paper_random_query()
                                    : rfh::Scenario::paper_flash_crowd();
    scenario.sim.seed = seed;
    scenario.world.seed = seed;
    for (const rfh::PolicyKind kind : kPaperPolicies) {
      rfh::SweepCell cell;
      cell.label = s == 0 ? "random_query" : "flash_crowd";
      cell.scenario = scenario;
      cell.policy = kind;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

std::uint64_t series_check_digest(const std::vector<EpochMetrics>& series) {
  std::uint64_t digest = kFnvBasis;
  for (const EpochMetrics& m : series) digest_epoch(digest, m);
  return digest;
}

double tail_unserved(const std::vector<EpochMetrics>& series) {
  const std::size_t tail = series.size() / 2;
  double sum = 0.0;
  for (std::size_t i = series.size() - tail; i < series.size(); ++i) {
    sum += series[i].unserved_fraction;
  }
  return ratio(sum, static_cast<double>(tail));
}

void run_paper(std::uint64_t seed, double seconds, bool trace,
               Result& result) {
  const auto chunks = static_cast<std::size_t>(
      std::max(4.0, std::ceil(seconds * kPaperSeedsPerSecond)));
  std::vector<std::vector<rfh::SweepCell>> grid;
  for (std::size_t j = 0; j < chunks; ++j) {
    grid.push_back(paper_chunk(mix_seed(seed, j)));
  }
  LayerReport layers;

  // Set-up: every cell's make_simulation (world build included) + epoch
  // 0, repeated; run_policy repeats this work inside the timed span
  // because it owns its simulation. The world build is also timed on its
  // own for topology.build_world_ms.
  std::vector<double> setup_ms;
  std::vector<double> build_world_ms;
  std::vector<double> construct_ms;
  std::vector<double> first_epoch_ms;
  std::size_t setup_violations = 0;
  // Allocations of the first two set-up repeats, which must agree.
  std::array<std::uint64_t, 2> rep_allocs{};
  for (int rep = 0; rep < kPaperSetupRepeats; ++rep) {
    perfbench::set_alloc_counting(trace && rep < 2);
    double total = 0.0;
    for (const auto& chunk : grid) {
      for (const rfh::SweepCell& cell : chunk) {
        CallStats world_call;
        CallStats construct_call;
        CallStats first_call;
        {
          Span span(&world_call);
          const rfh::World world = rfh::build_paper_world(cell.scenario.world);
        }
        std::unique_ptr<Simulation> sim;
        {
          Span span(&construct_call);
          sim = rfh::make_simulation(cell.scenario, cell.policy, cell.rfh);
        }
        {
          Span span(&first_call);
          const EpochReport report = sim->step();
          if (!(report.total_queries > 0.0)) ++setup_violations;
        }
        total += construct_call.ms + first_call.ms;
        build_world_ms.push_back(world_call.ms);
        construct_ms.push_back(construct_call.ms);
        first_epoch_ms.push_back(first_call.ms);
        if (trace && rep == 0) {
          layers.build_world_allocs += static_cast<double>(world_call.allocs);
          layers.construct_allocs += static_cast<double>(construct_call.allocs);
          layers.first_epoch_allocs += static_cast<double>(first_call.allocs);
        }
        if (rep < 2) {
          rep_allocs[static_cast<std::size_t>(rep)] +=
              world_call.allocs + construct_call.allocs + first_call.allocs;
        }
      }
    }
    perfbench::set_alloc_counting(false);
    setup_ms.push_back(total);
  }
  layers.setup_alloc_mismatches = rep_allocs[0] != rep_allocs[1] ? 1.0 : 0.0;
  const double cells_per_rep =
      static_cast<double>(chunks * std::size(kPaperPolicies) * 2);
  layers.build_world_allocs /= cells_per_rep;
  layers.construct_allocs /= cells_per_rep;
  layers.first_epoch_allocs /= cells_per_rep;
  layers.build_world_ms = median(build_world_ms);
  layers.construct_ms = median(construct_ms);
  layers.first_epoch_ms = median(first_epoch_ms);
  layers.rss_after_setup_mb = proc_status_mb("VmRSS");

  // Each chunk runs serially (run_policy per cell), then again through
  // SweepRunner with two workers; interleaving the passes spreads both
  // over the whole run. A traced run profiles every other serial chunk;
  // the rest give the untraced rate for trace.overhead_frac. Only RFH
  // cells get the registry, so the routing and policy counts (and
  // unserved_frac) describe RFH; the baselines propose nothing there.
  rfh::PhaseProfiler profiler;
  rfh::MetricRegistry registry;
  CallStats run_calls;
  DropTally drops;
  double traced_epochs = 0.0;
  double counted_epochs = 0.0;  // traced RFH epochs
  double chunk_epochs = 0.0;    // every chunk steps the same epochs
  for (const rfh::SweepCell& cell : grid[0]) {
    chunk_epochs += static_cast<double>(cell.scenario.epochs);
  }
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> rfh_unserved;
  rfh::MetricRegistry pool_registry;
  rfh::SweepOptions options;
  options.jobs = kParallelJobs;
  options.registry = trace ? &pool_registry : nullptr;
  const rfh::SweepRunner runner(options);
  for (std::size_t j = 0; j < chunks; ++j) {
    const bool trace_this = trace && j % 2 == 1;
    std::vector<std::vector<EpochMetrics>> chunk_series;
    double chunk_ms = 0.0;
    for (const rfh::SweepCell& cell : grid[j]) {
      perfbench::set_alloc_counting(trace_this);
      rfh::PolicyRun run;
      const auto start = Clock::now();
      {
        Span span(trace_this ? &run_calls : nullptr);
        const bool count_this =
            trace_this && cell.policy == rfh::PolicyKind::kRfh;
        run = rfh::run_policy(cell.scenario, cell.policy, cell.failures,
                              cell.rfh, nullptr,
                              count_this ? &registry : nullptr,
                              trace_this ? &profiler : nullptr);
      }
      const double cell_ms = ms_since(start);
      perfbench::set_alloc_counting(false);
      result.serial.ms.push_back(cell_ms);
      chunk_ms += cell_ms;
      chunk_series.push_back(std::move(run.series));
    }
    for (std::size_t c = 0; c < chunk_series.size(); ++c) {
      const std::vector<EpochMetrics>& series = chunk_series[c];
      if (grid[j][c].policy == rfh::PolicyKind::kRfh) {
        rfh_unserved.push_back(tail_unserved(series));
        if (trace_this) {
          for (const EpochMetrics& m : series) drops.add(m);
          counted_epochs += static_cast<double>(series.size());
        }
      }
      result.serial.digests.push_back(series_check_digest(series));
      result.serial.violations.push_back(0);
      result.serial.weights.push_back(series.size());
    }
    if (trace) (trace_this ? traced_ms : untraced_ms).push_back(chunk_ms);
    if (trace_this) traced_epochs += chunk_epochs;

    // j2 units: one scenario's four cells per SweepRunner::run call.
    const std::span<const rfh::SweepCell> chunk(grid[j]);
    for (std::size_t g = 0; g < chunk.size(); g += std::size(kPaperPolicies)) {
      const auto start = Clock::now();
      const std::vector<rfh::SweepCellResult> cells =
          runner.run(chunk.subspan(g, std::size(kPaperPolicies)));
      result.parallel.ms.push_back(ms_since(start));
      for (const rfh::SweepCellResult& cell : cells) {
        result.parallel.digests.push_back(
            series_check_digest(cell.run.series));
        result.parallel.violations.push_back(0);
        result.parallel.weights.push_back(cell.run.series.size());
      }
    }
  }

  result.setup_violations = setup_violations;

  if (!trace) {
    result.add("setup_s", median(setup_ms) / 1000.0, "s");
    const std::size_t cells = grid[0].size();
    result.add("epochs_per_s",
               chunk_epochs * 1000.0 / fastest_round_ms(result.serial.ms, cells),
               "1/s");
    result.add("epochs_per_s_j2",
               chunk_epochs * 1000.0 /
                   fastest_round_ms(result.parallel.ms,
                                    cells / std::size(kPaperPolicies)),
               "1/s");
    result.add("peak_rss_mb", proc_status_mb("VmHWM"), "MB");
    result.add("unserved_frac", mean(rfh_unserved), "fraction");
    return;
  }
  profiler.finalize();
  double phases_ms = 0.0;
  for (std::size_t i = 0; i < std::size(kPhaseMetrics); ++i) {
    layers.phase_ms[i] =
        phase_ms_per_epoch(profiler, kPhaseMetrics[i].phase, traced_epochs);
    phases_ms += profiler.totals(kPhaseMetrics[i].phase).total_ms;
  }
  const double collect_ms = profiler.totals(Phase::kMetricsCollect).total_ms;
  layers.collect_ms = ratio(collect_ms, traced_epochs);
  layers.harness_self_ms =
      ratio(run_calls.ms - phases_ms - collect_ms, traced_epochs);
  layers.run_policy_allocs =
      ratio(static_cast<double>(run_calls.allocs), traced_epochs);
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  layers.epoch_ms = ratio(sum(traced_ms), traced_epochs);
  layers.epoch_ms_j2 = ratio(sum(result.parallel.ms),
                             chunk_epochs * static_cast<double>(chunks));
  layers.pool_tasks_per_epoch =
      ratio(counter(pool_registry, "rfh_pool_tasks_executed_total"),
            chunk_epochs * static_cast<double>(chunks));
  layers.steal_ratio =
      ratio(counter(pool_registry, "rfh_pool_tasks_stolen_total"),
            counter(pool_registry, "rfh_pool_tasks_executed_total"));
  layers.counts = CounterSnapshot::take(registry);
  layers.counted_epochs = counted_epochs;
  layers.drops = drops;
  layers.overhead_frac = 1.0 - ratio(median(untraced_ms), median(traced_ms));
  layers.emit(result);
}

// --- entry point -----------------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "rfh_perfbench: %s\nusage: rfh_perfbench --workload "
               "<steady_100k|churn_stream_10k|paper_sweep> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(seconds > 0.0) ||
          seconds > 600.0) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      trace = value[0] == '1';
    } else {
      return usage("unknown flag");
    }
  }
  if (argc % 2 != 1) return usage("every flag takes one value");

  Result result;
  if (workload == "steady_100k") {
    run_large(LargeSpec{1000, 3, 2.0, false}, seed, seconds, trace, result);
  } else if (workload == "churn_stream_10k") {
    run_large(LargeSpec{100, 60, 20.0, true}, seed, seconds, trace, result);
  } else if (workload == "paper_sweep") {
    run_paper(seed, seconds, trace, result);
  } else {
    return usage("unknown --workload");
  }
  std::ostringstream out;
  write_result(out, workload, seed, seconds, trace, result);
  std::cout << out.str() << std::flush;
  return 0;
}
