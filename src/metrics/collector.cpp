#include "metrics/collector.h"

#include "metrics/diversity.h"
#include "metrics/imbalance.h"
#include "metrics/utilization.h"

namespace rfh {

EpochMetrics MetricsCollector::collect(const Simulation& sim,
                                       const EpochReport& report) const {
  EpochMetrics m;
  m.epoch = report.epoch;

  m.utilization =
      replica_utilization(sim.traffic(), sim.cluster(), sim.topology());
  m.total_replicas = sim.cluster().total_replicas();
  m.avg_replicas_per_partition =
      static_cast<double>(m.total_replicas) /
      static_cast<double>(sim.config().partitions);

  m.replication_cost_total = sim.cumulative_replication_cost();
  m.replication_cost_avg =
      sim.cumulative_replications() > 0
          ? m.replication_cost_total /
                static_cast<double>(sim.cumulative_replications())
          : 0.0;

  m.migrations_total = sim.cumulative_migrations();
  m.migrations_avg = m.total_replicas > 0
                         ? static_cast<double>(m.migrations_total) /
                               static_cast<double>(m.total_replicas)
                         : 0.0;
  m.migration_cost_total = sim.cumulative_migration_cost();
  m.migration_cost_avg =
      m.migrations_total > 0
          ? m.migration_cost_total / static_cast<double>(m.migrations_total)
          : 0.0;

  // Scale-free variant of Eq. 25 (stddev / mean over per-copy workload):
  // the raw stddev is dominated by the mean per-copy load, which differs
  // across algorithms simply because their copy counts differ; the
  // coefficient of variation isolates how *evenly* work is spread.
  m.load_imbalance = load_imbalance_cv(sim.traffic(), sim.cluster());
  m.path_length = report.mean_path_length;

  m.diversity_level = mean_diversity_level(sim.cluster(), sim.topology());
  m.dc_survivable_fraction =
      datacenter_survivable_fraction(sim.cluster(), sim.topology());

  const Histogram& latency = sim.traffic().latency();
  m.latency_mean_ms = latency.mean();
  if (!latency.empty()) {
    m.latency_p50_ms = latency.percentile(0.50);
    m.latency_p99_ms = latency.percentile(0.99);
    m.latency_p999_ms = latency.percentile(0.999);
  }
  m.sla_attainment =
      latency.fraction_at_or_below(sim.config().sla_target_ms);

  m.unserved_fraction = report.total_queries > 0.0
                            ? report.unserved_queries / report.total_queries
                            : 0.0;
  m.replications_this_epoch = report.replications;
  m.migrations_this_epoch = report.migrations;
  m.suicides_this_epoch = report.suicides;

  m.dropped_this_epoch = report.dropped_actions;
  const auto reason = [&report](DropReason r) {
    return report.dropped_by_reason[static_cast<std::size_t>(r)];
  };
  m.dropped_bandwidth = reason(DropReason::kBandwidth);
  m.dropped_storage_cap = reason(DropReason::kStorageCap);
  m.dropped_node_cap = reason(DropReason::kNodeCap);
  m.dropped_dead_target = reason(DropReason::kDeadTarget);
  m.dropped_invalid = reason(DropReason::kInvalid);
  m.dropped_zone_diversity = reason(DropReason::kZoneDiversity);
  m.dropped_unknown = reason(DropReason::kUnknown);
  m.repairs_starved = report.repairs_starved;
  return m;
}

}  // namespace rfh
