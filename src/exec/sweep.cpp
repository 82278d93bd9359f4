#include "exec/sweep.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "common/assert.h"
#include "exec/thread_pool.h"
#include "harness/report.h"
#include "obs/sinks.h"
#include "obs/timeline.h"
#include "telemetry/registry.h"

namespace rfh {

namespace {

/// FNV-1a 64-bit over a byte string.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void digest_double(std::uint64_t& hash, double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", value);
  hash = fnv1a(hash, std::string_view(buf, static_cast<std::size_t>(n)));
}

void digest_u64(std::uint64_t& hash, std::uint64_t value) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%llu",
                              static_cast<unsigned long long>(value));
  hash = fnv1a(hash, std::string_view(buf, static_cast<std::size_t>(n)));
}

void append_double(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

/// Minimal JSON string escaping for our own labels (quotes, backslashes,
/// control characters).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

constexpr PolicyKind kComparedPolicies[] = {
    PolicyKind::kRequest, PolicyKind::kOwner, PolicyKind::kRandom,
    PolicyKind::kRfh};

}  // namespace

std::uint64_t series_digest(std::span<const EpochMetrics> series) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const EpochMetrics& m : series) {
    digest_u64(hash, m.epoch);
    digest_double(hash, m.utilization);
    digest_u64(hash, m.total_replicas);
    digest_double(hash, m.avg_replicas_per_partition);
    digest_double(hash, m.replication_cost_total);
    digest_double(hash, m.replication_cost_avg);
    digest_u64(hash, m.migrations_total);
    digest_double(hash, m.migrations_avg);
    digest_double(hash, m.migration_cost_total);
    digest_double(hash, m.migration_cost_avg);
    digest_double(hash, m.load_imbalance);
    digest_double(hash, m.path_length);
    digest_double(hash, m.latency_mean_ms);
    digest_double(hash, m.latency_p50_ms);
    digest_double(hash, m.latency_p99_ms);
    digest_double(hash, m.latency_p999_ms);
    digest_double(hash, m.sla_attainment);
    digest_double(hash, m.diversity_level);
    digest_double(hash, m.dc_survivable_fraction);
    digest_double(hash, m.mean_replica_lag);
    digest_double(hash, m.stale_read_fraction);
    digest_double(hash, m.lost_writes_total);
    digest_double(hash, m.unserved_fraction);
    digest_u64(hash, m.replications_this_epoch);
    digest_u64(hash, m.migrations_this_epoch);
    digest_u64(hash, m.suicides_this_epoch);
    digest_u64(hash, m.dropped_this_epoch);
    digest_u64(hash, m.dropped_bandwidth);
    digest_u64(hash, m.dropped_storage_cap);
    digest_u64(hash, m.dropped_node_cap);
    digest_u64(hash, m.dropped_dead_target);
    digest_u64(hash, m.dropped_invalid);
    digest_double(hash, m.stream_arrivals);
    digest_double(hash, m.stream_served);
    digest_double(hash, m.stream_blocked);
    digest_double(hash, m.stream_dropped);
    digest_u64(hash, m.stream_max_queue_depth);
    digest_double(hash, m.stream_wait_mean_ms);
    digest_double(hash, m.stream_p50_ms);
    digest_double(hash, m.stream_p99_ms);
    digest_double(hash, m.stream_p999_ms);
  }
  return hash;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

unsigned SweepRunner::effective_jobs() const noexcept {
  return options_.jobs == 0 ? ThreadPool::default_jobs() : options_.jobs;
}

SweepCellResult SweepRunner::run_cell(const SweepCell& cell,
                                      std::size_t index) const {
  SweepCellResult result;
  result.index = index;
  result.label = cell.label;
  result.policy = cell.policy;
  result.seed = cell.scenario.sim.seed;

  MetricRegistry registry;
  std::ostringstream trace;
  JsonlSink sink(trace);
  std::optional<TimelineStore> timeline;
  if (options_.collect_timeline) {
    timeline.emplace(cell.scenario.sim.partitions);
  }
  result.run = run_policy(cell.scenario, cell.policy, cell.failures, cell.rfh,
                          options_.collect_traces ? &sink : nullptr,
                          options_.collect_metrics ? &registry : nullptr,
                          /*profiler=*/nullptr, /*checker=*/nullptr,
                          timeline ? &*timeline : nullptr);
  if (options_.collect_metrics) {
    std::ostringstream metrics;
    registry.write_json(metrics);
    result.metrics_json = std::move(metrics).str();
  }
  if (options_.collect_traces) {
    result.trace_jsonl = std::move(trace).str();
  }
  if (timeline) {
    result.timeline_digest = timeline->digest();
    std::ostringstream dump;
    timeline->dump_jsonl(dump);
    result.timeline_jsonl = std::move(dump).str();
  }
  return result;
}

std::vector<SweepCellResult> SweepRunner::run(
    std::span<const SweepCell> cells) const {
  const unsigned jobs = effective_jobs();
  std::vector<SweepCellResult> results;
  results.reserve(cells.size());

  const auto start = std::chrono::steady_clock::now();
  ThreadPool::Stats pool_stats;
  if (jobs <= 1 || cells.size() <= 1) {
    // Serial baseline: cells execute inline, in index order.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results.push_back(run_cell(cells[i], i));
    }
  } else {
    ThreadPool pool(std::min<unsigned>(
        jobs, static_cast<unsigned>(cells.size())));
    std::vector<std::future<SweepCellResult>> futures;
    futures.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const SweepCell& cell = cells[i];
      futures.push_back(pool.submit([this, &cell, i] {
        return run_cell(cell, i);
      }));
    }
    // Merge strictly in cell-index order; the calling thread helps drain
    // the pool while waiting. A throwing cell rethrows from the lowest
    // failing index.
    for (auto& future : futures) {
      results.push_back(pool.wait(future));
    }
    // A future turns ready inside the packaged_task, before the worker
    // bumps its executed/busy counters; drain to quiescence so the stats
    // snapshot below counts every cell.
    pool.wait_idle();
    pool_stats = pool.stats();
  }

  if (options_.registry != nullptr) {
    const auto wall = std::chrono::steady_clock::now() - start;
    const double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
    MetricRegistry& reg = *options_.registry;
    reg.counter("rfh_sweep_cells_total", {},
                "Sweep cells executed")
        .inc(static_cast<double>(cells.size()));
    reg.gauge("rfh_sweep_jobs", {}, "Worker threads of the last sweep")
        .set(static_cast<double>(jobs));
    reg.counter("rfh_pool_tasks_executed_total", {},
                "Tasks completed by the sweep pool")
        .inc(static_cast<double>(pool_stats.executed));
    reg.counter("rfh_pool_tasks_stolen_total", {},
                "Tasks taken from a sibling worker's deque")
        .inc(static_cast<double>(pool_stats.stolen));
    reg.gauge("rfh_pool_occupancy_ratio", {},
              "Summed task wall time / (jobs * sweep wall time)")
        .set(wall_ns > 0.0 ? static_cast<double>(pool_stats.busy_ns) /
                                 (static_cast<double>(jobs) * wall_ns)
                           : 0.0);
  }
  return results;
}

std::string sweep_results_json(std::span<const SweepCellResult> results) {
  std::string out;
  out += "{\"schema\":\"rfh-sweep/1\",\"cells\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepCellResult& r = results[i];
    if (i > 0) out += ',';
    out += "{\"index\":";
    out += std::to_string(r.index);
    out += ",\"label\":\"" + json_escape(r.label) + "\"";
    out += ",\"policy\":\"" + std::string(policy_name(r.policy)) + "\"";
    out += ",\"seed\":" + std::to_string(r.seed);
    out += ",\"epochs\":" + std::to_string(r.run.series.size());
    out += ",\"faults_injected\":" + std::to_string(r.run.faults_injected);
    out += ",\"killed\":" + std::to_string(r.run.killed.size());
    out += ",\"slo_breaches\":" + std::to_string(r.run.slo_breaches.size());
    out += ",\"utilization_tail50\":";
    append_double(out, tail_mean(r.run, &EpochMetrics::utilization, 50));
    out += ",\"path_length_tail50\":";
    append_double(out, tail_mean(r.run, &EpochMetrics::path_length, 50));
    out += ",\"replication_cost_total\":";
    append_double(out, r.run.series.empty()
                           ? 0.0
                           : r.run.series.back().replication_cost_total);
    // Fingerprint of every per-epoch field plus the kill order — the
    // bit-identity witness the differential tests compare.
    std::uint64_t digest = series_digest(r.run.series);
    for (const ServerId victim : r.run.killed) {
      digest_u64(digest, victim.value());
    }
    for (const std::uint64_t count : r.run.faults_by_kind) {
      digest_u64(digest, count);
    }
    // SLO breach episodes and the causal flight record fold into the same
    // fingerprint; runs without either keep their prior digests (no bytes
    // are folded for empty breach lists or a zero timeline digest).
    for (const SloBreachRecord& b : r.run.slo_breaches) {
      digest_u64(digest, b.epoch);
      digest_u64(digest, static_cast<std::uint64_t>(b.objective));
      digest_double(digest, b.observed);
      digest_double(digest, b.target);
      digest_double(digest, b.burn_short);
      digest_double(digest, b.burn_long);
      digest_u64(digest, b.cause_id);
    }
    if (r.timeline_digest != 0) {
      digest_u64(digest, r.timeline_digest);
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    out += ",\"series_digest\":\"";
    out += buf;
    out += "\"}";
  }
  out += "]}";
  return out;
}

ComparativeResult run_comparison(
    const Scenario& scenario, const std::vector<FailureEvent>& failures,
    unsigned jobs) {
  std::vector<SweepCell> cells;
  cells.reserve(std::size(kComparedPolicies));
  for (const PolicyKind kind : kComparedPolicies) {
    SweepCell cell;
    cell.label = std::string(policy_name(kind));
    cell.scenario = scenario;
    cell.policy = kind;
    cell.failures = failures;
    cells.push_back(std::move(cell));
  }
  SweepOptions options;
  options.jobs = jobs == 0
                     ? std::min<unsigned>(ThreadPool::default_jobs(),
                                          static_cast<unsigned>(cells.size()))
                     : jobs;
  const SweepRunner runner(options);
  std::vector<SweepCellResult> results = runner.run(cells);
  ComparativeResult comparison;
  comparison.runs.reserve(results.size());
  for (SweepCellResult& r : results) {
    comparison.runs.push_back(std::move(r.run));
  }
  return comparison;
}

}  // namespace rfh
