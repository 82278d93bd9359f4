// Per-epoch metric snapshots covering every series the paper plots.
#pragma once

#include "common/units.h"
#include "sim/engine.h"

namespace rfh {

struct EpochMetrics {
  Epoch epoch = 0;

  // Fig. 3: average replica utilization rate (non-primary copies).
  double utilization = 0.0;
  // Fig. 4: copy census (primaries included, as Dynamo counts N copies).
  std::uint32_t total_replicas = 0;
  double avg_replicas_per_partition = 0.0;
  // Fig. 5: cumulative replication cost and per-copy average.
  double replication_cost_total = 0.0;
  double replication_cost_avg = 0.0;
  // Fig. 6: cumulative migration times and per-replica average.
  std::uint32_t migrations_total = 0;
  double migrations_avg = 0.0;
  // Fig. 7: cumulative migration cost and per-replica average.
  double migration_cost_total = 0.0;
  double migration_cost_avg = 0.0;
  // Fig. 8: load imbalance (Eq. 25) per epoch.
  double load_imbalance = 0.0;
  // Fig. 9: mean lookup path length per epoch.
  double path_length = 0.0;

  // Response latency (extension; the paper's motivation cites Amazon's
  // 300 ms / 99.9 % SLA but never plots latency directly).
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  /// Fraction of queries answered within SimConfig::sla_target_ms.
  double sla_attainment = 0.0;

  // Geographic diversity (Section II-A availability levels): mean max
  // pairwise level over partitions, and the fraction that would survive
  // the loss of any single datacenter.
  double diversity_level = 0.0;
  double dc_survivable_fraction = 0.0;

  // Eventual-consistency metrics (extension; filled by the runner when
  // Scenario::write_fraction > 0, otherwise zero).
  double mean_replica_lag = 0.0;
  double stale_read_fraction = 0.0;
  double lost_writes_total = 0.0;

  // Extras (not plotted by the paper but useful for analysis/tests).
  double unserved_fraction = 0.0;
  std::uint32_t replications_this_epoch = 0;
  std::uint32_t migrations_this_epoch = 0;
  std::uint32_t suicides_this_epoch = 0;

  // Engine validation pressure: how many policy actions were refused this
  // epoch, broken down by the binding constraint (obs::DropReason order).
  std::uint32_t dropped_this_epoch = 0;
  std::uint32_t dropped_bandwidth = 0;
  std::uint32_t dropped_storage_cap = 0;
  std::uint32_t dropped_node_cap = 0;
  std::uint32_t dropped_dead_target = 0;
  std::uint32_t dropped_invalid = 0;
  std::uint32_t dropped_zone_diversity = 0;
  std::uint32_t dropped_unknown = 0;
  /// Availability-floor repairs refused on a node cap this epoch (the
  /// starvation signal mirrored by rfh_repairs_starved_total).
  std::uint32_t repairs_starved = 0;

  // Streaming-load layer (src/stream/; filled by the runner when the
  // scenario's workload is kStream, otherwise zero). Arrival accounting:
  // stream_arrivals == stream_served + stream_blocked + stream_dropped.
  double stream_arrivals = 0.0;
  double stream_served = 0.0;
  double stream_blocked = 0.0;
  double stream_dropped = 0.0;
  std::uint32_t stream_max_queue_depth = 0;
  double stream_wait_mean_ms = 0.0;
  double stream_p50_ms = 0.0;
  double stream_p99_ms = 0.0;
  double stream_p999_ms = 0.0;
};

class MetricsCollector {
 public:
  /// Snapshot the metrics for the epoch `report` describes. Keeps no
  /// series: the caller owns it (PolicyRun::series).
  EpochMetrics collect(const Simulation& sim, const EpochReport& report) const;
};

}  // namespace rfh
