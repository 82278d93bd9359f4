#include "exec/sweep.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "ring/hash.h"
#include "telemetry/registry.h"

namespace rfh {

namespace {

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

constexpr PolicyKind kComparedPolicies[] = {
    PolicyKind::kRequest, PolicyKind::kOwner, PolicyKind::kRandom,
    PolicyKind::kRfh};

}  // namespace

std::uint64_t series_digest(std::span<const EpochMetrics> series) {
  std::uint64_t hash = kFnvOffset;
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
    digest_u64(hash, m.dropped_zone_diversity);
    digest_u64(hash, m.dropped_unknown);
    digest_u64(hash, m.repairs_starved);
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

std::vector<SweepCellResult> SweepRunner::run(
    std::span<const SweepCell> cells) const {
  const unsigned jobs = effective_jobs();
  std::vector<SweepCellResult> results(cells.size());

  const auto start = std::chrono::steady_clock::now();
  // One shard per cell, each writing only its own slot. Without a pool
  // the cells run inline in index order — the serial baseline; with one,
  // the calling thread helps drain it, and a throwing cell rethrows from
  // the lowest failing index.
  const auto n = static_cast<unsigned>(cells.size());
  std::optional<ThreadPool> pool;
  if (jobs > 1 && n > 1) pool.emplace(std::min(jobs, n));
  parallel_for_shards(pool ? &*pool : nullptr, n, n,
                      [&](unsigned /*shard*/, IndexRange range) {
                        const SweepCell& cell = cells[range.begin];
                        results[range.begin] = SweepCellResult{
                            range.begin, cell.label, cell.policy,
                            cell.scenario.sim.seed,
                            run_policy(cell.scenario, cell.policy,
                                       cell.failures, cell.rfh)};
                      });
  ThreadPool::Stats pool_stats;
  if (pool) {
    // A worker adds a task's busy time after its future turns ready;
    // drain to quiescence so the occupancy gauge counts every cell.
    pool->wait_idle();
    pool_stats = pool->stats();
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
    reg.gauge("rfh_pool_occupancy_ratio", {},
              "Summed task wall time / (jobs * sweep wall time)")
        .set(wall_ns > 0.0 ? static_cast<double>(pool_stats.busy_ns) /
                                 (static_cast<double>(jobs) * wall_ns)
                           : 0.0);
  }
  return results;
}

ComparativeResult run_comparison(const Scenario& scenario, unsigned jobs) {
  std::vector<SweepCell> cells;
  cells.reserve(std::size(kComparedPolicies));
  for (const PolicyKind kind : kComparedPolicies) {
    SweepCell cell;
    cell.label = std::string(policy_name(kind));
    cell.scenario = scenario;
    cell.policy = kind;
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
