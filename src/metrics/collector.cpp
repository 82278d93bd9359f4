#include "metrics/collector.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/mathutil.h"
#include "metrics/diversity.h"

namespace rfh {

EpochMetrics MetricsCollector::collect(const Simulation& sim,
                                       const EpochReport& report) const {
  const ClusterState& cluster = sim.cluster();
  const Topology& topology = sim.topology();
  const EpochTraffic& traffic = sim.traffic();
  const std::uint32_t partitions = sim.config().partitions;
  EpochMetrics m;
  m.epoch = report.epoch;

  // One pass over every partition's copies, reading each copy's served
  // queries once. Every copy's load feeds the imbalance statistic; a
  // non-primary copy's load also feeds Fig. 3's utilization (Eq. 20:
  // served / capacity, clamped to [0, 1] — the paper measures replicas,
  // so primaries are left out). Each partition's diversity level is
  // computed once for both diversity series.
  std::vector<double> loads;
  loads.reserve(cluster.total_replicas());
  double utilization_sum = 0.0;
  std::size_t utilization_copies = 0;
  double diversity_sum = 0.0;
  std::uint32_t survivable = 0;
  for (std::uint32_t pv = 0; pv < partitions; ++pv) {
    const PartitionId p{pv};
    for (const Replica& r : cluster.replicas_of(p)) {
      const double served = traffic.served(p, r.server);
      loads.push_back(served);
      if (r.primary) continue;
      const double cap = topology.server(r.server).spec.per_replica_capacity;
      utilization_sum += cap <= 0.0 ? 0.0 : std::clamp(served / cap, 0.0, 1.0);
      ++utilization_copies;
    }
    const std::uint32_t level = partition_diversity_level(cluster, topology, p);
    diversity_sum += level;
    // Copies in two datacenters survive the loss of any single one.
    if (level == 5) ++survivable;
  }
  m.utilization = utilization_copies == 0
                      ? 0.0
                      : utilization_sum /
                            static_cast<double>(utilization_copies);
  m.total_replicas = cluster.total_replicas();
  m.avg_replicas_per_partition =
      static_cast<double>(m.total_replicas) / static_cast<double>(partitions);

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
  m.load_imbalance = coefficient_of_variation(loads);
  m.path_length = report.mean_path_length;

  if (partitions > 0) {
    m.diversity_level = diversity_sum / partitions;
    m.dc_survivable_fraction = static_cast<double>(survivable) / partitions;
  }

  const Histogram& latency = traffic.latency();
  m.latency_mean_ms = latency.mean();
  constexpr std::array<double, 3> kLatencyQuantiles{0.5, 0.99, 0.999};
  std::array<double, 3> quantiles{};
  latency.quantiles(kLatencyQuantiles, quantiles);
  m.latency_p50_ms = quantiles[0];
  m.latency_p99_ms = quantiles[1];
  m.latency_p999_ms = quantiles[2];
  // Unavailable queries carry no latency sample, so an epoch where every
  // query was unavailable has an empty histogram, whose fraction reads
  // 1.0; none of those queries met the SLA.
  m.sla_attainment = report.total_queries > 0.0 && latency.empty()
                         ? 0.0
                         : latency.fraction_at_or_below(kSlaTargetMs);

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
