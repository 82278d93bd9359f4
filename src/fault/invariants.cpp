#include "fault/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>

#include "common/availability.h"
#include "obs/events.h"
#include "telemetry/registry.h"

namespace rfh {

namespace {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// |a - b| within an absolute-or-relative tolerance (query tallies are
/// sums of doubles accumulated in different orders).
bool close(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-6 * scale;
}

}  // namespace

const char* invariant_name(InvariantId id) noexcept {
  switch (id) {
    case InvariantId::kReplicaFloor: return "replica_floor";
    case InvariantId::kDeadHost: return "dead_host";
    case InvariantId::kRouting: return "routing";
    case InvariantId::kStorage: return "storage";
    case InvariantId::kAccounting: return "accounting";
    case InvariantId::kTraffic: return "traffic";
    case InvariantId::kTelemetry: return "telemetry";
    case InvariantId::kQueueDepth: return "queue_depth";
    case InvariantId::kStreamAccounting: return "stream_accounting";
    case InvariantId::kFragmentCensus: return "fragment_census";
    case InvariantId::kZoneDiversity: return "zone_diversity";
  }
  return "?";
}

void InvariantChecker::report_violation(Epoch epoch, InvariantId id,
                                        std::string detail) {
  ++violations_this_epoch_;
  violations_.push_back(Violation{epoch, id, std::move(detail)});
}

std::size_t InvariantChecker::check_epoch(const Simulation& sim,
                                          const EpochReport& report) {
  violations_this_epoch_ = 0;
  const Epoch epoch = report.epoch;
  const SimConfig& cfg = sim.config();
  const bool erasure = cfg.redundancy == RedundancyMode::kErasure;
  if (excused_.empty()) {
    excused_.assign(cfg.partitions, 1);  // bootstrap: seeded with 1 copy
    prev_hosts_.resize(cfg.partitions);
    for (const Server& server : sim.topology().servers()) {
      capacity_.push_back(server.spec.per_replica_capacity);
    }
    placed_.assign(sim.topology().server_count(), 0);
    if (erasure) reached_k_.assign(cfg.partitions, 0);
  }

  // One pass over partitions, structural state first and flow after, so
  // a fail-fast dump reads partition by partition; the global sums it
  // feeds are reconciled once the pass is done.
  std::uint32_t by_partition = 0;
  double queries = 0.0;
  double unserved = 0.0;
  for (std::uint32_t p = 0; p < cfg.partitions; ++p) {
    const PartitionId pid{p};
    check_dead_hosts(sim, pid, epoch);
    check_replica_floor(sim, pid, epoch);
    check_routing(sim, pid, epoch);
    by_partition += sim.cluster().replica_count(pid);
    for (const Replica& r : sim.cluster().replicas_of(pid)) {
      ++placed_[r.server.value()];
    }
    check_traffic(sim, pid, epoch);
    queries += sim.traffic().partition_queries(pid);
    unserved += sim.traffic().unserved(pid);
    if (erasure) {
      check_fragment_census(sim, pid, epoch);
      check_zone_diversity(sim, pid, epoch);
    }
  }
  check_storage(sim, epoch);
  check_accounting(sim, report, by_partition);
  check_conservation(sim, report, queries, unserved);

  queries_sum_ += report.total_queries;
  unserved_sum_ += report.unserved_queries;
  replications_sum_ += report.replications;
  migrations_sum_ += report.migrations;
  suicides_sum_ += report.suicides;
  ++epochs_checked_;
  check_telemetry(sim, epoch);

  abort_if_failed("", epoch);
  return violations_this_epoch_;
}

std::size_t InvariantChecker::check_stream(const StreamEpochStats& stats,
                                           const StreamConfig& config,
                                           double batch_total_queries) {
  violations_this_epoch_ = 0;
  const Epoch epoch = stats.epoch;

  if (stats.max_queue_depth > config.queue_cap) {
    report_violation(
        epoch, InvariantId::kQueueDepth,
        format("max queue depth %u exceeds --queue-cap %u",
               stats.max_queue_depth, config.queue_cap));
  }
  const double accounted = stats.served + stats.blocked + stats.dropped;
  if (!close(stats.arrivals, accounted)) {
    report_violation(
        epoch, InvariantId::kStreamAccounting,
        format("arrivals %.6f != served %.6f + blocked %.6f + dropped %.6f",
               stats.arrivals, stats.served, stats.blocked, stats.dropped));
  }
  if (!close(stats.arrivals, batch_total_queries)) {
    report_violation(
        epoch, InvariantId::kStreamAccounting,
        format("stream arrivals %.6f disagree with batch total %.6f "
               "(batch equivalence broke)",
               stats.arrivals, batch_total_queries));
  }

  abort_if_failed("stream ", epoch);
  return violations_this_epoch_;
}

void InvariantChecker::abort_if_failed(const char* layer, Epoch epoch) const {
  if (mode_ != Mode::kFailFast || violations_this_epoch_ == 0) return;
  std::fprintf(stderr,
               "%sinvariant check failed at epoch %u (%zu violations):\n",
               layer, epoch, violations_this_epoch_);
  const std::size_t first = violations_.size() - violations_this_epoch_;
  for (std::size_t i = first; i < violations_.size(); ++i) {
    std::fprintf(stderr, "  [%s] %s\n", invariant_name(violations_[i].id),
                 violations_[i].detail.c_str());
  }
  std::abort();
}

void InvariantChecker::check_dead_hosts(const Simulation& sim,
                                        PartitionId pid, Epoch epoch) {
  const ClusterState& cluster = sim.cluster();
  for (const Replica& r : cluster.replicas_of(pid)) {
    if (!cluster.alive(r.server)) {
      report_violation(epoch, InvariantId::kDeadHost,
                       format("partition %u keeps a copy on dead server %u",
                              pid.value(), r.server.value()));
    }
  }
  const ServerId primary = cluster.primary_of(pid);
  if (primary.valid() && !cluster.alive(primary)) {
    report_violation(epoch, InvariantId::kDeadHost,
                     format("partition %u primary %u is dead", pid.value(),
                            primary.value()));
  }
}

void InvariantChecker::check_replica_floor(const Simulation& sim,
                                           PartitionId pid, Epoch epoch) {
  const ClusterState& cluster = sim.cluster();
  const std::uint32_t p = pid.value();
  const std::uint32_t floor = sim.config().availability_floor();
  const std::span<const Replica> replicas = cluster.replicas_of(pid);
  const auto count = static_cast<std::uint32_t>(replicas.size());
  std::vector<ServerId>& prev_hosts = prev_hosts_[p];
  if (count >= floor) {
    excused_[p] = 0;
  } else if (excused_[p] == 0) {
    // Dropped below the floor since the last check: only a copy lost to
    // a dead server (crash, promotion, reseed) excuses the deficit; a
    // voluntary drop (policy suicide below r_min) is a violation.
    const bool failure_caused =
        std::any_of(prev_hosts.begin(), prev_hosts.end(), [&](ServerId s) {
          return !cluster.alive(s) && !cluster.has_replica(pid, s);
        });
    if (failure_caused) {
      excused_[p] = 1;
    } else {
      report_violation(
          epoch, InvariantId::kReplicaFloor,
          format("partition %u holds %u copies < Eq. 14 floor %u with no "
                 "server failure to excuse it",
                 p, count, floor));
    }
  }
  // Refilled in place: after the first epochs a partition's hosts fit
  // the capacity its vector already has.
  prev_hosts.clear();
  for (const Replica& r : replicas) prev_hosts.push_back(r.server);
}

void InvariantChecker::check_routing(const Simulation& sim, PartitionId pid,
                                     Epoch epoch) {
  // A query from DC 0 reaches a live primary iff the primary is listed
  // live in its datacenter (the holder stage) and the shortest path from
  // DC 0 ends there. Read from the state, so the check shares no code
  // with the router or its relay table.
  const ClusterState& cluster = sim.cluster();
  const ServerId primary = cluster.primary_of(pid);
  if (!primary.valid()) {
    if (cluster.replica_count(pid) != 0) {
      report_violation(epoch, InvariantId::kRouting,
                       format("partition %u has copies but no primary",
                              pid.value()));
    }
    return;
  }
  if (!cluster.alive(primary)) return;  // reported by dead_host
  const DatacenterId holder_dc = sim.topology().server(primary).datacenter;
  const std::vector<ServerId>& live = cluster.live_by_dc()[holder_dc.value()];
  const std::span<const DatacenterId> path =
      sim.paths().path_span(DatacenterId{0}, holder_dc);
  if (path.empty() || !std::binary_search(live.begin(), live.end(), primary)) {
    report_violation(epoch, InvariantId::kRouting,
                     format("partition %u route does not reach primary %u",
                            pid.value(), primary.value()));
    return;
  }
  if (path.back() != holder_dc) {
    report_violation(
        epoch, InvariantId::kRouting,
        format("partition %u route ends in dc %u, primary lives in dc %u",
               pid.value(), path.back().value(), holder_dc.value()));
  }
}

void InvariantChecker::check_traffic(const Simulation& sim, PartitionId pid,
                                     Epoch epoch) {
  const EpochTraffic& traffic = sim.traffic();
  if (traffic.unserved(pid) >
      traffic.partition_queries(pid) * (1.0 + 1e-9) + 1e-9) {
    report_violation(
        epoch, InvariantId::kTraffic,
        format("partition %u blocked %.3f of only %.3f offered queries",
               pid.value(), traffic.unserved(pid),
               traffic.partition_queries(pid)));
  }
  // An absent cell serves 0.0, so only the touched cells can break the
  // capacity bound.
  for (const TrafficCell& cell : traffic.cells(pid)) {
    const double cap = capacity_[cell.server];
    if (cell.served > cap * (1.0 + 1e-9) + 1e-9) {
      report_violation(
          epoch, InvariantId::kTraffic,
          format("partition %u replica on server %u served %.3f > "
                 "capacity %.3f",
                 pid.value(), cell.server, cell.served, cap));
    }
  }
}

void InvariantChecker::check_fragment_census(const Simulation& sim,
                                             PartitionId pid, Epoch epoch) {
  const SimConfig& cfg = sim.config();
  const std::uint32_t p = pid.value();
  const std::uint32_t count = sim.cluster().replica_count(pid);
  if (count > cfg.max_replicas_per_partition) {
    report_violation(
        epoch, InvariantId::kFragmentCensus,
        format("partition %u holds %u fragments > cap %u", p, count,
               cfg.max_replicas_per_partition));
  }
  if (count >= cfg.ec_k) {
    reached_k_[p] = 1;
    return;
  }
  // Below k: reconstruction-infeasible. Legal only while the stripe is
  // still fanning out from its seed (never reached k) or when the engine
  // already recorded the stripe loss.
  if (reached_k_[p] != 0 && !sim.stripe_lost(pid)) {
    report_violation(
        epoch, InvariantId::kFragmentCensus,
        format("partition %u holds %u < k=%u fragments with no recorded "
               "stripe loss",
               p, count, cfg.ec_k));
  }
}

void InvariantChecker::check_zone_diversity(const Simulation& sim,
                                            PartitionId pid, Epoch epoch) {
  // A stripe has a few dozen fragments at most, so counting each one's
  // datacenter peers ahead of it needs no per-DC tally array.
  const std::uint32_t m = sim.config().ec_m;
  const std::span<const Replica> replicas = sim.cluster().replicas_of(pid);
  const Topology& topology = sim.topology();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const DatacenterId dc = topology.server(replicas[i].server).datacenter;
    std::uint32_t earlier = 0;
    for (std::size_t j = 0; j < i; ++j) {
      if (topology.server(replicas[j].server).datacenter == dc) ++earlier;
    }
    if (earlier == m) {  // the (m+1)-th fragment in dc: report it once
      report_violation(
          epoch, InvariantId::kZoneDiversity,
          format("partition %u packs > m=%u fragments into datacenter %u",
                 pid.value(), m, dc.value()));
    }
  }
}

void InvariantChecker::check_storage(const Simulation& sim, Epoch epoch) {
  const SimConfig& cfg = sim.config();
  for (const Server& server : sim.topology().servers()) {
    const std::uint32_t copies = sim.cluster().copies_on(server.id);
    const std::uint32_t placed = std::exchange(placed_[server.id.value()], 0);
    if (placed != copies) {
      report_violation(
          epoch, InvariantId::kStorage,
          format("server %u counts %u copies but the placement holds %u",
                 server.id.value(), copies, placed));
    }
    if (copies == 0) continue;
    if (copies > server.spec.max_vnodes) {
      report_violation(epoch, InvariantId::kStorage,
                       format("server %u hosts %u copies > vnode cap %u",
                              server.id.value(), copies,
                              server.spec.max_vnodes));
    }
    const double fraction = sim.cluster().storage_fraction(server.id);
    if (fraction > cfg.storage_limit + 1e-9) {
      report_violation(
          epoch, InvariantId::kStorage,
          format("server %u occupancy %.4f exceeds Eq. 19 limit phi=%.2f",
                 server.id.value(), fraction, cfg.storage_limit));
    }
  }
}

void InvariantChecker::check_accounting(const Simulation& sim,
                                        const EpochReport& report,
                                        std::uint32_t by_partition) {
  const std::uint32_t census = sim.cluster().total_replicas();
  if (by_partition != census || report.total_replicas != census) {
    report_violation(
        report.epoch, InvariantId::kAccounting,
        format("replica census disagrees: report=%u cluster=%u sum=%u",
               report.total_replicas, census, by_partition));
  }
}

void InvariantChecker::check_conservation(const Simulation& sim,
                                          const EpochReport& report,
                                          double queries, double unserved) {
  const double total = sim.traffic().total_queries();
  if (!close(queries, report.total_queries) || !close(queries, total)) {
    report_violation(
        report.epoch, InvariantId::kTraffic,
        format("query conservation broke: sum=%.6f report=%.6f total=%.6f",
               queries, report.total_queries, total));
  }
  if (!close(unserved, report.unserved_queries)) {
    report_violation(
        report.epoch, InvariantId::kTraffic,
        format("unserved conservation broke: sum=%.6f report=%.6f", unserved,
               report.unserved_queries));
  }
}

void InvariantChecker::check_telemetry(const Simulation& sim, Epoch epoch) {
  const MetricRegistry* reg = sim.telemetry();
  if (reg == nullptr) return;
  const Counter* epochs = reg->find_counter("rfh_epochs_total");
  // Only reconcile when the checker observed every counted epoch — a
  // registry attached mid-run has a head start the sums cannot see.
  if (epochs == nullptr ||
      epochs->value() != static_cast<double>(epochs_checked_)) {
    return;
  }
  const auto expect = [&](const char* name, MetricLabels labels,
                          double want) {
    const Counter* c = reg->find_counter(name, labels);
    const double got = c != nullptr ? c->value() : 0.0;
    if (!close(got, want)) {
      std::string series = name;
      if (!labels.empty()) {
        series += "{" + labels.front().first + "=" + labels.front().second +
                  "}";
      }
      report_violation(
          epoch, InvariantId::kTelemetry,
          format("%s=%.6f does not reconcile with report sum %.6f",
                 series.c_str(), got, want));
    }
  };
  expect("rfh_queries_total", {}, queries_sum_);
  expect("rfh_unserved_queries_total", {}, unserved_sum_);
  expect("rfh_actions_applied_total", {{"kind", "replicate"}},
         static_cast<double>(replications_sum_));
  expect("rfh_actions_applied_total", {{"kind", "migrate"}},
         static_cast<double>(migrations_sum_));
  expect("rfh_actions_applied_total", {{"kind", "suicide"}},
         static_cast<double>(suicides_sum_));
  expect("rfh_data_losses_total", {},
         static_cast<double>(sim.data_losses()));
}

std::string InvariantChecker::summary() const {
  std::string text =
      format("invariants: %zu epochs checked, %zu violations",
             epochs_checked_, violations_.size());
  for (const Violation& v : violations_) {
    text += format("\n  epoch %u [%s] ", v.epoch, invariant_name(v.id));
    text += v.detail;
  }
  return text;
}

}  // namespace rfh
