#include "sim/engine.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/log.h"
#include "exec/parallel_for.h"

namespace rfh {

Simulation::Simulation(World world, const SimConfig& config,
                       std::unique_ptr<WorkloadGenerator> workload,
                       std::unique_ptr<ReplicationPolicy> policy)
    : world_(std::move(world)),
      config_(config),
      graph_(world_.topology.datacenter_count(), world_.links),
      paths_(graph_),
      router_(world_.topology, paths_),
      cluster_(world_.topology, config_),
      stats_(config_.partitions, world_.topology.server_count(),
             world_.topology.datacenter_count(), config_.alpha,
             config_.alpha_weights_history),
      traffic_(config_.partitions, world_.topology.server_count(),
               world_.topology.datacenter_count()),
      workload_(std::move(workload)),
      policy_(std::move(policy)),
      rng_workload_(Rng(config_.seed).fork(kWorkloadStreamTag)),
      rng_policy_(Rng(config_.seed).fork(kPolicyStreamTag)),
      rng_failures_(Rng(config_.seed).fork(kFailureStreamTag)),
      partition_cause_(config_.partitions, 0),
      shift_baseline_(config_.partitions, -1.0),
      stripe_lost_(config_.partitions, 0),
      replication_bytes_(world_.topology.server_count(), 0),
      migration_bytes_(world_.topology.server_count(), 0) {
  RFH_ASSERT(workload_ != nullptr);
  RFH_ASSERT(policy_ != nullptr);
  RFH_ASSERT_MSG(graph_.connected(), "datacenter graph must be connected");
  // Pre-size the relay table's outer vector so concurrent propagate
  // shards never grow it (rows themselves are allocated by the owning
  // shard).
  router_.reserve_relays(config_.partitions);
  seed_primaries();
}

void Simulation::set_jobs(unsigned jobs) {
  const unsigned resolved = jobs == 0 ? ThreadPool::default_jobs() : jobs;
  jobs_ = resolved;
  if (resolved <= 1) {
    pool_.reset();
    return;
  }
  pool_ = std::make_unique<ThreadPool>(resolved);
}

void Simulation::seed_primaries() {
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    const PartitionId pid{p};
    // Ring ownership decides the home, but "a physical node hosts an
    // amount of virtual nodes within its capacity limit": walk the
    // preference order past saturated servers. The walk streams over the
    // ring — it visits the same servers in the same order a materialized
    // preference_list would, stopping at the first that can accept.
    ServerId home;
    ServerId first;
    cluster_.ring().for_each_preference(
        HashRing::partition_key(pid), [&](ServerId candidate) {
          if (!first.valid()) first = candidate;
          if (cluster_.can_accept(candidate, pid)) {
            home = candidate;
            return false;
          }
          return true;
        });
    if (!home.valid()) home = first;  // everyone saturated: force the owner
    cluster_.add_replica(pid, home, /*primary=*/true);
  }
}

double Simulation::transfer_cost(DatacenterId from, DatacenterId to,
                                 Bytes bytes,
                                 BytesPerEpoch bandwidth) const {
  // Eq. 1: c = d * f * s / b. Distance in km (floored at 1 km so an
  // intra-datacenter copy has a small nonzero cost), size/bandwidth as a
  // dimensionless transfer fraction of one epoch's budget.
  const double d = std::max(world_.topology.distance_km(from, to), 1.0);
  const double s_over_b =
      static_cast<double>(bytes) / static_cast<double>(bandwidth);
  return d * config_.failure_rate * s_over_b;
}

void Simulation::PropagateShard::begin_epoch() {
  samples.clear();
  work.clear();
  segments.clear();
  cache_valid = false;
  host_cache_used = 0;
}

std::span<const ServerId> Simulation::PropagateShard::hosts(
    const ClusterState& cluster, PartitionId p, DatacenterId dc) {
  if (!cache_valid || cached_partition != p.value()) {
    cached_partition = p.value();
    cache_valid = true;
    host_cache_used = 0;
  }
  for (std::size_t i = 0; i < host_cache_used; ++i) {
    if (host_cache[i].dc == dc.value()) return host_cache[i].hosts;
  }
  if (host_cache_used == host_cache.size()) host_cache.emplace_back();
  HostsEntry& entry = host_cache[host_cache_used++];
  entry.dc = dc.value();
  cluster.hosts_in_dc_into(p, dc, entry.hosts);
  return entry.hosts;
}

void Simulation::propagate_flow(
    const QueryFlow& flow, std::span<const std::vector<ServerId>> live_by_dc,
    PropagateShard& shard) {
  const ServerId holder = cluster_.primary_of(flow.partition);
  if (!holder.valid()) {
    // Data currently unavailable (lost primary not yet reseeded).
    traffic_.unserved_mut(flow.partition) += flow.queries;
    if (flow_log_ != nullptr) {
      // No latency sample in batch mode either: -1 marks "lost".
      shard.segments.push_back(FlowSegment{flow.partition, flow.requester,
                                           ServerId::invalid(), flow.requester,
                                           flow.queries, -1.0});
    }
    return;
  }

  // k-of-n reconstruction (EC mode): a read fans out to k fragments, so
  // one logical query costs k fragment-reads of capacity; with fewer than
  // k live fragments the partition cannot be reconstructed at all. kf is
  // exactly 1.0 in replica mode, where every scale below is an FP no-op.
  const double kf = static_cast<double>(config_.reconstruction_threshold());
  if (kf > 1.0 && cluster_.replica_count(flow.partition) < config_.ec_k) {
    traffic_.unserved_mut(flow.partition) += flow.queries;
    if (flow_log_ != nullptr) {
      shard.segments.push_back(FlowSegment{flow.partition, flow.requester,
                                           ServerId::invalid(), flow.requester,
                                           flow.queries, -1.0});
    }
    return;
  }

  double residual = flow.queries * kf;
  const auto absorb = [&](const RouteStage& stage) {
    if (residual <= 0.0) return false;
    // The relay sees (and forwards) the residual reaching this DC —
    // this is Eq. 2's tr_ijkt for the forwarding node.
    traffic_.node_traffic_mut(flow.partition, stage.relay) += residual;
    shard.work.push_back(WorkDelta{stage.relay.value(), residual});

    // Local absorption: every copy hosted in this datacenter takes up
    // to its remaining per-replica capacity, non-primaries first, in
    // deterministic order (Eqs. 2-8's sequential capacity subtraction).
    for (const ServerId host : shard.hosts(cluster_, flow.partition,
                                           stage.dc)) {
      if (residual <= 0.0) break;
      const double cap =
          world_.topology.server(host).spec.per_replica_capacity;
      const double already = traffic_.served(flow.partition, host);
      const double take = std::min(residual, std::max(0.0, cap - already));
      if (take <= 0.0) continue;
      traffic_.served_mut(flow.partition, host) += take;
      if (host != stage.relay) {
        traffic_.node_traffic_mut(flow.partition, host) += take;
        shard.work.push_back(WorkDelta{host.value(), take});
      }
      shard.samples.push_back(PathDelta{
          take / kf, static_cast<double>(stage.hops_at_entry),
          stage.latency_ms});
      if (flow_log_ != nullptr) {
        shard.segments.push_back(FlowSegment{flow.partition, flow.requester,
                                             host, stage.dc, take / kf,
                                             stage.latency_ms});
      }
      residual -= take;
    }
    return residual > 0.0;
  };
  // The walk assembles a stage only while residual demand reaches it.
  const RouteEnd route = router_.walk(flow.partition, flow.requester, holder,
                                      live_by_dc, shard.route_ctx, absorb);
  if (residual > 0.0) {
    // Demand beyond even the primary's capacity: blocked this epoch.
    traffic_.unserved_mut(flow.partition) += residual / kf;
    shard.samples.push_back(
        PathDelta{residual / kf, static_cast<double>(route.total_hops),
                  route.total_latency_ms + config_.blocked_penalty_ms});
    if (flow_log_ != nullptr) {
      shard.segments.push_back(FlowSegment{
          flow.partition, flow.requester, ServerId::invalid(), flow.requester,
          residual / kf, route.total_latency_ms + config_.blocked_penalty_ms});
    }
  }
}

void Simulation::propagate(const QueryBatch& batch) {
  traffic_.reset();
  if (flow_log_ != nullptr) flow_log_->clear();
  const auto live_by_dc = cluster_.live_by_dc();

  // Serial pre-pass, in flow order: the query tallies (one of which —
  // total_queries — is a single scalar whose FP association order must
  // match the serial engine exactly), the count of consecutive
  // same-partition runs, and the partition-major check.
  std::size_t n_runs = 0;
  bool partition_major = true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryFlow& flow = batch[i];
    traffic_.add_total_queries(flow.queries);
    traffic_.partition_queries_mut(flow.partition) += flow.queries;
    traffic_.requester_queries_mut(flow.partition, flow.requester) +=
        flow.queries;
    if (i == 0 || flow.partition != batch[i - 1].partition) ++n_runs;
    if (i > 0 && flow.partition.value() < batch[i - 1].partition.value()) {
      partition_major = false;
    }
  }
  if (batch.empty()) return;

  runs_.resize(n_runs);
  std::size_t r = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 0 || batch[i].partition != batch[i - 1].partition) {
      runs_[r++] = FlowRun{batch[i].partition.value(),
                           static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(i + 1)};
    } else {
      runs_[r - 1].end = static_cast<std::uint32_t>(i + 1);
    }
  }

  // Fan the runs across shards only for partition-major batches (every
  // built-in generator emits them sorted), where each partition's flows
  // land in exactly one run — so a shard's writes to partition-indexed
  // traffic state and relay-table rows are private to it. Arbitrary test
  // batches take the same code path with a single shard.
  const unsigned shards =
      partition_major ? shard_count_for(pool_.get(), n_runs, /*min_grain=*/1)
                      : 1;
  if (shards_.size() < shards) shards_.resize(shards);
  for (unsigned s = 0; s < shards; ++s) shards_[s].begin_epoch();

  parallel_for_shards(
      pool_.get(), n_runs, shards, [&](unsigned s, IndexRange range) {
        PropagateShard& shard = shards_[s];
        for (std::size_t ri = range.begin; ri < range.end; ++ri) {
          const FlowRun& run = runs_[ri];
          for (std::uint32_t f = run.begin; f < run.end; ++f) {
            propagate_flow(batch[f], live_by_dc, shard);
          }
        }
      });

  // Shard-order merge: shard ranges concatenate to the serial iteration
  // order, so replaying each shard's deferred writes in shard-index order
  // reproduces the serial write sequence — and therefore the global
  // accumulators, histogram, flow log and router counters — bit for bit,
  // for every shard count and jobs value.
  for (unsigned s = 0; s < shards; ++s) {
    PropagateShard& shard = shards_[s];
    for (const PathDelta& d : shard.samples) {
      traffic_.add_path_sample(d.queries, d.hops);
      traffic_.add_latency(d.queries, d.ms);
    }
    for (const WorkDelta& d : shard.work) {
      traffic_.server_work_mut(ServerId{d.server}) += d.amount;
    }
    if (flow_log_ != nullptr) {
      for (const FlowSegment& segment : shard.segments) {
        flow_log_->add(segment);
      }
    }
    router_.flush_counts(shard.route_ctx);
  }
}

namespace {

/// Why can_accept(target, p) said no — mirrors its checks in order so the
/// dropped action's trace event names the binding constraint. Every check
/// is evaluated for real (including the Eq. 19 phi limit), so a new
/// rejection path in can_accept that this mirror misses shows up as
/// kUnknown instead of being mislabeled kStorageCap.
DropReason classify_rejected_target(const ClusterState& cluster,
                                    const Topology& topology,
                                    const SimConfig& config, ServerId target,
                                    PartitionId p) {
  if (!cluster.alive(target)) return DropReason::kDeadTarget;
  if (cluster.has_replica(p, target)) return DropReason::kInvalid;
  const ServerSpec& spec = topology.server(target).spec;
  if (cluster.copies_on(target) >= spec.max_vnodes) {
    return DropReason::kNodeCap;
  }
  if (config.redundancy == RedundancyMode::kErasure) {
    const DatacenterId dc = topology.server(target).datacenter;
    std::uint32_t in_dc = 0;
    for (const Replica& r : cluster.replicas_of(p)) {
      if (topology.server(r.server).datacenter == dc) ++in_dc;
    }
    if (in_dc >= config.ec_m) return DropReason::kZoneDiversity;
  }
  const auto projected =
      static_cast<double>(cluster.storage_used(target) + config.unit_size());
  if (projected >
      config.storage_limit * static_cast<double>(spec.storage_capacity)) {
    return DropReason::kStorageCap;  // the phi limit (Eq. 19)
  }
  RFH_ASSERT_MSG(false, "can_accept rejected for a reason classify missed");
  return DropReason::kUnknown;
}

}  // namespace

void Simulation::apply_actions(const Actions& actions, EpochReport& report) {
  std::fill(replication_bytes_.begin(), replication_bytes_.end(), Bytes{0});
  std::fill(migration_bytes_.begin(), migration_bytes_.end(), Bytes{0});

  // Causal plumbing. All of it is dead weight when no sink is installed:
  // `traced` is the single branch the disabled path pays, and every
  // emit_* below returns 0 immediately in that case.
  const bool traced = events_.enabled();
  const auto cause_of = [&](PartitionId p) -> std::uint64_t {
    const std::uint64_t cause =
        p.valid() && p.value() < partition_cause_.size()
            ? partition_cause_[p.value()]
            : 0;
    return cause != 0 ? cause : events_.ambient_cause();
  };
  const auto remember = [&](PartitionId p, std::uint64_t id) {
    if (id != 0 && p.valid() && p.value() < partition_cause_.size()) {
      partition_cause_[p.value()] = id;
    }
  };
  // RuleFired opens the validation of one explained action; the outcome
  // (applied or dropped) is parented to it so the chain reads
  // cause -> inequality -> consequence.
  const auto rule_fired = [&](PartitionId p,
                              const DecisionExplanation& why) -> std::uint64_t {
    if (!traced || why.rule == DecisionRule::kNone) return 0;
    return events_.emit_caused(cause_of(p),
                               RuleFired{epoch_, p, why.rule, why.observed,
                                         why.threshold, why.q_bar});
  };

  const auto drop = [&](ActionKind kind, PartitionId p, ServerId target,
                        DropReason reason, std::uint64_t parent) {
    ++report.dropped_actions;
    ++report.dropped_by_reason[static_cast<std::size_t>(reason)];
    events_.emit_caused(parent != 0 ? parent : cause_of(p),
                        ActionDropped{epoch_, p, kind, reason, target});
  };

  for (const ReplicateAction& a : actions.replications) {
    const std::uint64_t rule_id = rule_fired(a.partition, a.why);
    const ServerId src = cluster_.primary_of(a.partition);
    if (!src.valid() || !a.target.valid()) {
      drop(ActionKind::kReplicate, a.partition, a.target,
           !a.target.valid() ? DropReason::kDeadTarget : DropReason::kInvalid,
           rule_id);
      continue;
    }
    if (!cluster_.can_accept(a.target, a.partition)) {
      const DropReason reason = classify_rejected_target(
          cluster_, world_.topology, config_, a.target, a.partition);
      // A node-cap drop of an availability-floor action is a *repair*
      // the capacity layer refused — the starvation the default vnode
      // cap silently caused at scale (see kStarvedRepairWarnThreshold).
      if (reason == DropReason::kNodeCap &&
          a.why.rule == DecisionRule::kAvailabilityFloor) {
        ++report.repairs_starved;
      }
      drop(ActionKind::kReplicate, a.partition, a.target, reason, rule_id);
      continue;
    }
    if (cluster_.replica_count(a.partition) >=
        config_.max_replicas_per_partition) {
      if (a.why.rule == DecisionRule::kAvailabilityFloor) {
        ++report.repairs_starved;
      }
      drop(ActionKind::kReplicate, a.partition, a.target, DropReason::kNodeCap,
           rule_id);
      continue;
    }
    const ServerSpec& spec = world_.topology.server(src).spec;
    if (replication_bytes_[src.value()] + config_.unit_size() >
        spec.replication_bandwidth) {
      // Source out of replication bandwidth this epoch.
      drop(ActionKind::kReplicate, a.partition, a.target,
           DropReason::kBandwidth, rule_id);
      continue;
    }
    replication_bytes_[src.value()] += config_.unit_size();
    cluster_.add_replica(a.partition, a.target);
    const double cost = transfer_cost(
        world_.topology.server(src).datacenter,
        world_.topology.server(a.target).datacenter, config_.unit_size(),
        spec.replication_bandwidth);
    report.replications += 1;
    report.replication_cost += cost;
    remember(a.partition,
             events_.emit_caused(
                 rule_id != 0 ? rule_id : cause_of(a.partition),
                 ReplicaAdded{epoch_, a.partition, src, a.target, cost,
                              a.why}));
    if (config_.redundancy == RedundancyMode::kErasure &&
        stripe_lost_[a.partition.value()] != 0 &&
        cluster_.replica_count(a.partition) >= config_.ec_k) {
      stripe_lost_[a.partition.value()] = 0;
      remember(a.partition,
               events_.emit_caused(cause_of(a.partition),
                                   StripeReconstructed{epoch_, a.partition}));
    }
  }

  for (const MigrateAction& a : actions.migrations) {
    const std::uint64_t rule_id = rule_fired(a.partition, a.why);
    if (!a.from.valid() || !a.to.valid() ||
        !cluster_.has_replica(a.partition, a.from) ||
        cluster_.primary_of(a.partition) == a.from) {
      drop(ActionKind::kMigrate, a.partition, a.to, DropReason::kInvalid,
           rule_id);
      continue;
    }
    if (!cluster_.can_accept(a.to, a.partition)) {
      drop(ActionKind::kMigrate, a.partition, a.to,
           classify_rejected_target(cluster_, world_.topology, config_, a.to,
                                    a.partition),
           rule_id);
      continue;
    }
    const ServerSpec& spec = world_.topology.server(a.from).spec;
    if (migration_bytes_[a.from.value()] + config_.unit_size() >
        spec.migration_bandwidth) {
      drop(ActionKind::kMigrate, a.partition, a.to, DropReason::kBandwidth,
           rule_id);
      continue;
    }
    migration_bytes_[a.from.value()] += config_.unit_size();
    cluster_.remove_replica(a.partition, a.from);
    cluster_.add_replica(a.partition, a.to);
    const double cost = transfer_cost(
        world_.topology.server(a.from).datacenter,
        world_.topology.server(a.to).datacenter, config_.unit_size(),
        spec.migration_bandwidth);
    report.migrations += 1;
    report.migration_cost += cost;
    remember(a.partition,
             events_.emit_caused(
                 rule_id != 0 ? rule_id : cause_of(a.partition),
                 MigrationExecuted{epoch_, a.partition, a.from, a.to, cost,
                                   a.why}));
  }

  for (const SuicideAction& a : actions.suicides) {
    const std::uint64_t rule_id = rule_fired(a.partition, a.why);
    if (!a.server.valid() || !cluster_.has_replica(a.partition, a.server) ||
        cluster_.primary_of(a.partition) == a.server ||
        (config_.redundancy == RedundancyMode::kErasure &&
         cluster_.replica_count(a.partition) <= config_.ec_k)) {
      // The EC guard keeps a stripe from suiciding below k live
      // fragments — a self-inflicted reconstruction failure.
      drop(ActionKind::kSuicide, a.partition, a.server, DropReason::kInvalid,
           rule_id);
      continue;
    }
    cluster_.remove_replica(a.partition, a.server);
    report.suicides += 1;
    remember(a.partition,
             events_.emit_caused(rule_id != 0 ? rule_id : cause_of(a.partition),
                                 Suicide{epoch_, a.partition, a.server,
                                         a.why}));
  }

  if (report.repairs_starved > kStarvedRepairWarnThreshold) {
    log(LogLevel::kWarn,
        "epoch %u: %u availability-floor repairs starved on node caps "
        "(raise max_vnodes / partitions_hint)",
        epoch_, report.repairs_starved);
  }
}

EpochReport Simulation::step() {
  // The profiler's epoch window spans from here until the next
  // begin_epoch (or finalize), so metric collection performed by the
  // caller between steps lands inside this epoch's window.
  if (profiler_ != nullptr) profiler_->begin_epoch(epoch_);

  EpochReport report;
  report.epoch = epoch_;

  QueryBatch batch;
  {
    const ScopedTimer timer(profiler_, Phase::kWorkloadGen);
    batch = workload_->generate(epoch_, rng_workload_);
    if (traffic_multiplier_ != 1.0) {
      for (QueryFlow& flow : batch) flow.queries *= traffic_multiplier_;
    }
  }
  {
    const ScopedTimer timer(profiler_, Phase::kRouting);
    propagate(batch);
  }
  {
    const ScopedTimer timer(profiler_, Phase::kStatsUpdate);
    stats_.update(traffic_, pool_.get());
    if (events_.enabled()) emit_traffic_shifts();

    report.total_queries = traffic_.total_queries();
    double unserved = 0.0;
    for (std::uint32_t p = 0; p < config_.partitions; ++p) {
      unserved += traffic_.unserved(PartitionId{p});
    }
    report.unserved_queries = unserved;
    report.mean_path_length = traffic_.mean_path_length();

    events_.emit(QueryRoutedSummary{epoch_, report.total_queries,
                                    report.unserved_queries,
                                    report.mean_path_length});
  }

  Actions actions;
  {
    const ScopedTimer timer(profiler_, Phase::kPolicyDecide);
    PolicyContext ctx{world_.topology, paths_,      cluster_,
                      stats_,          traffic_,    config_,
                      epoch_,          rng_policy_, pool_.get()};
    actions = policy_->decide(ctx);
  }
  {
    const ScopedTimer timer(profiler_, Phase::kActionApply);
    apply_actions(actions, report);

    report.total_replicas = cluster_.total_replicas();

    cum_replication_cost_ += report.replication_cost;
    cum_migration_cost_ += report.migration_cost;
    cum_migrations_ += report.migrations;
    cum_replications_ += report.replications;

    events_.emit(EpochCompleted{
        epoch_, report.total_queries, report.unserved_queries,
        report.replications, report.migrations, report.suicides,
        report.dropped_actions, report.total_replicas,
        report.replication_cost, report.migration_cost});

    if (telemetry_ != nullptr) update_telemetry(report);
  }

  ++epoch_;
  return report;
}

void Simulation::set_telemetry(MetricRegistry* registry) {
  telemetry_ = registry;
  router_.set_telemetry(registry);
  policy_->set_telemetry(registry);
  if (registry == nullptr) {
    tel_ = TelemetryHandles{};
    return;
  }
  MetricRegistry& reg = *registry;
  tel_.queries = &reg.counter("rfh_queries_total", {},
                              "Queries offered to the cluster");
  tel_.unserved = &reg.counter("rfh_unserved_queries_total", {},
                               "Queries blocked beyond every capacity");
  for (std::size_t k = 0; k < tel_.applied.size(); ++k) {
    tel_.applied[k] = &reg.counter(
        "rfh_actions_applied_total",
        {{"kind", action_kind_name(static_cast<ActionKind>(k))}},
        "Policy actions the engine validated and applied");
  }
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    tel_.dropped[r] = &reg.counter(
        "rfh_actions_dropped_total",
        {{"reason", drop_reason_name(static_cast<DropReason>(r))}},
        "Policy actions the engine refused during validation");
  }
  tel_.replication_cost = &reg.counter(
      "rfh_replication_cost_total", {}, "Cumulative Eq. 1 replication cost");
  tel_.migration_cost = &reg.counter("rfh_migration_cost_total", {},
                                     "Cumulative Eq. 1 migration cost");
  tel_.epochs = &reg.counter("rfh_epochs_total", {}, "Epochs simulated");
  tel_.data_losses = &reg.counter(
      "rfh_data_losses_total", {},
      "Partitions that lost every copy and were reseeded empty");
  tel_.repairs_starved = &reg.counter(
      "rfh_repairs_starved_total", {},
      "Availability-floor repairs dropped on a node cap");
  tel_.replicas =
      &reg.gauge("rfh_replicas", {}, "Copy census, primaries included");
  tel_.live_servers = &reg.gauge("rfh_live_servers", {}, "Live servers");
  tel_.epoch = &reg.gauge("rfh_epoch", {}, "Current epoch");
}

void Simulation::update_telemetry(const EpochReport& report) {
  tel_.queries->inc(report.total_queries);
  tel_.unserved->inc(report.unserved_queries);
  tel_.applied[static_cast<std::size_t>(ActionKind::kReplicate)]->inc(
      static_cast<double>(report.replications));
  tel_.applied[static_cast<std::size_t>(ActionKind::kMigrate)]->inc(
      static_cast<double>(report.migrations));
  tel_.applied[static_cast<std::size_t>(ActionKind::kSuicide)]->inc(
      static_cast<double>(report.suicides));
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    tel_.dropped[r]->inc(static_cast<double>(report.dropped_by_reason[r]));
  }
  tel_.repairs_starved->inc(static_cast<double>(report.repairs_starved));
  tel_.replication_cost->inc(report.replication_cost);
  tel_.migration_cost->inc(report.migration_cost);
  tel_.epochs->inc(1.0);
  tel_.replicas->set(static_cast<double>(report.total_replicas));
  tel_.live_servers->set(
      static_cast<double>(cluster_.live_server_count()));
  tel_.epoch->set(static_cast<double>(report.epoch));
}

void Simulation::run(Epoch epochs) {
  for (Epoch e = 0; e < epochs; ++e) step();
}

void Simulation::emit_traffic_shifts() {
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    const double q = stats_.avg_query(PartitionId{p});
    double& baseline = shift_baseline_[p];
    if (baseline < 0.0) {
      baseline = q;  // first observation establishes the baseline
      continue;
    }
    const double scale = std::max(baseline, 1e-9);
    if (std::abs(q - baseline) < kTrafficShiftThreshold * scale) continue;
    // A sharp move is almost always the echo of the latest disturbance;
    // chain to it so forensic queries connect demand shifts to faults.
    const std::uint64_t id = events_.emit_caused(
        events_.ambient_cause(),
        TrafficShift{epoch_, PartitionId{p}, baseline, q});
    if (id != 0) partition_cause_[p] = id;
    baseline = q;
  }
}

void Simulation::handle_lost_copies(std::span<const ClusterState::LostCopy> lost,
                                    std::span<const std::uint64_t> causes) {
  for (std::size_t i = 0; i < lost.size(); ++i) {
    const ClusterState::LostCopy& copy = lost[i];
    const std::uint64_t cause = i < causes.size() ? causes[i] : 0;
    if (!copy.was_primary) continue;
    // Promote the surviving replica with the highest smoothed traffic.
    ServerId best;
    double best_traffic = -1.0;
    for (const Replica& r : cluster_.replicas_of(copy.partition)) {
      const double tr = stats_.node_traffic(copy.partition, r.server);
      if (!best.valid() || tr > best_traffic ||
          (tr == best_traffic && r.server < best)) {
        best = r.server;
        best_traffic = tr;
      }
    }
    if (best.valid()) {
      cluster_.set_primary(copy.partition, best);
      last_promotions_.push_back(Promotion{copy.partition, best, false});
      const std::uint64_t id = events_.emit_caused(
          cause, PrimaryPromoted{epoch_, copy.partition, best});
      if (id != 0) partition_cause_[copy.partition.value()] = id;
      continue;
    }
    // No surviving copy: the data is lost. Re-seed an empty primary at the
    // ring successor so the keyspace stays owned.
    ++data_losses_;
    if (telemetry_ != nullptr) tel_.data_losses->inc(1.0);
    log(LogLevel::kWarn, "partition %u lost all copies; reseeding",
        copy.partition.value());
    ServerId home;
    ServerId first;
    cluster_.ring().for_each_preference(
        HashRing::partition_key(copy.partition), [&](ServerId candidate) {
          if (!first.valid()) first = candidate;
          if (cluster_.can_accept(candidate, copy.partition)) {
            home = candidate;
            return false;
          }
          return true;
        });
    if (!home.valid()) home = first;
    if (home.valid()) {
      cluster_.add_replica(copy.partition, home, /*primary=*/true);
      last_promotions_.push_back(Promotion{copy.partition, home, true});
      // In EC mode a reseeded stripe starts below k fragments; mark it
      // lost-but-already-counted so the stripe scan doesn't double-count.
      if (config_.redundancy == RedundancyMode::kErasure) {
        stripe_lost_[copy.partition.value()] = 1;
      }
      const std::uint64_t id =
          events_.emit_caused(cause, Reseeded{epoch_, copy.partition, home});
      if (id != 0) partition_cause_[copy.partition.value()] = id;
    }
  }
}

void Simulation::fail_servers(std::span<const ServerId> servers) {
  last_promotions_.clear();
  std::vector<ClusterState::LostCopy> all_lost;
  std::vector<std::uint64_t> lost_causes;  // aligned with all_lost
  std::vector<ServerId> victims;
  victims.reserve(servers.size());
  std::vector<bool> doomed(world_.topology.server_count(), false);
  for (const ServerId s : servers) {
    if (!cluster_.alive(s) || doomed[s.value()]) continue;
    RFH_ASSERT_MSG(cluster_.live_server_count() >
                       static_cast<std::uint32_t>(victims.size()) + 1,
                   "refusing to kill the last live server");
    doomed[s.value()] = true;
    victims.push_back(s);
  }
  cluster_.kill_servers(
      victims, [&](ServerId s, std::span<const ClusterState::LostCopy> lost) {
        const std::uint64_t failure_id = events_.emit(ServerFailed{epoch_, s});
        for (const ClusterState::LostCopy& copy : lost) {
          all_lost.push_back(copy);
          lost_causes.push_back(failure_id);
          // The failure is now the partition's latest causal antecedent —
          // the promotion/reseed pass below may refine it further.
          if (failure_id != 0 &&
              copy.partition.value() < partition_cause_.size()) {
            partition_cause_[copy.partition.value()] = failure_id;
          }
        }
        // Statistical echoes (TrafficShift) with no tighter per-partition
        // cause chain to the most recent disturbance.
        if (failure_id != 0) events_.set_ambient_cause(failure_id);
      });
  // Drop the victims' smoothed traffic so Eq. 17's mean (over *live*
  // servers) no longer carries the ghost of their decaying tr_bar — before
  // the promotion pass below, the first reader of survivors' stats.
  stats_.clear_servers(victims);
  // Relays that died leave the relay table; dead-DC skips are read live.
  router_.servers_down(victims);
  handle_lost_copies(all_lost, lost_causes);
  if (config_.redundancy == RedundancyMode::kErasure) {
    // Stripe-loss scan: a partition whose live fragment count fell below
    // k is reconstruction-infeasible — a data loss even though copies
    // survive. The stripe_lost_ flag dedups partitions hit repeatedly
    // (multiple victims, or losses in earlier failure waves).
    for (std::size_t i = 0; i < all_lost.size(); ++i) {
      const PartitionId p = all_lost[i].partition;
      if (stripe_lost_[p.value()] != 0) continue;
      const std::uint32_t alive_fragments = cluster_.replica_count(p);
      if (alive_fragments == 0 || alive_fragments >= config_.ec_k) continue;
      stripe_lost_[p.value()] = 1;
      ++data_losses_;
      if (telemetry_ != nullptr) tel_.data_losses->inc(1.0);
      log(LogLevel::kWarn,
          "partition %u stripe lost: %u fragments alive, below k=%u",
          p.value(), alive_fragments, config_.ec_k);
      const std::uint64_t id = events_.emit_caused(
          i < lost_causes.size() ? lost_causes[i] : 0,
          StripeLost{epoch_, p, alive_fragments});
      if (id != 0) partition_cause_[p.value()] = id;
    }
  }
}

std::vector<ServerId> Simulation::fail_random_servers(std::uint32_t n) {
  const std::size_t live = cluster_.live_server_count();
  RFH_ASSERT(n < live);
  std::vector<ServerId> victims = cluster_.live_at_ranks(
      rng_failures_.sample_without_replacement(live, n));
  fail_servers(victims);
  return victims;
}

std::vector<ServerId> Simulation::fail_datacenter(DatacenterId dc) {
  std::vector<ServerId> victims;
  for (const ServerId s : world_.topology.servers_in(dc)) {
    if (cluster_.alive(s)) victims.push_back(s);
  }
  fail_servers(victims);
  return victims;
}

void Simulation::set_stats_frozen(ServerId s, bool frozen) {
  if (stats_.frozen(s) == frozen) return;
  stats_.set_frozen(s, frozen);
  const std::uint64_t id = events_.emit(StatsFrozen{epoch_, s, frozen});
  if (id != 0) events_.set_ambient_cause(id);
}

void Simulation::recover_servers(std::span<const ServerId> servers) {
  std::vector<ServerId> revived;
  revived.reserve(servers.size());
  std::vector<bool> seen(world_.topology.server_count(), false);
  for (const ServerId s : servers) {
    if (cluster_.alive(s) || seen[s.value()]) continue;
    seen[s.value()] = true;
    revived.push_back(s);
  }
  // One bulk ring join instead of per-server sorted inserts, then emit in
  // span order — the same final state and event sequence the sequential
  // revive-then-emit loop produced.
  cluster_.revive_servers(revived);
  for (const ServerId s : revived) {
    const std::uint64_t id = events_.emit(ServerRecovered{epoch_, s});
    if (id != 0) events_.set_ambient_cause(id);
  }
  router_.servers_up(revived);
}

namespace {
// Normalized (low id, high id) key for an undirected link. Note:
// std::minmax over rvalues would return dangling references.
std::pair<std::uint32_t, std::uint32_t> link_key(DatacenterId a,
                                                 DatacenterId b) {
  return {std::min(a.value(), b.value()), std::max(a.value(), b.value())};
}
}  // namespace

std::vector<Link> Simulation::active_links() const {
  std::vector<Link> links;
  for (const Link& link : world_.links) {
    const bool disabled =
        std::find(disabled_links_.begin(), disabled_links_.end(),
                  link_key(link.a, link.b)) != disabled_links_.end();
    if (!disabled) links.push_back(link);
  }
  return links;
}

void Simulation::rebuild_network() {
  graph_ = DcGraph(world_.topology.datacenter_count(), active_links());
  RFH_ASSERT_MSG(graph_.connected(),
                 "link failure would partition the network");
  // router_ reads paths_ through a pointer that survives the
  // reassignment; its relay table depends on liveness only.
  paths_ = ShortestPaths(graph_);
}

bool Simulation::link_failure_would_partition(DatacenterId a,
                                              DatacenterId b) const {
  std::vector<Link> links;
  const auto key = link_key(a, b);
  for (const Link& link : active_links()) {
    if (link_key(link.a, link.b) != key) links.push_back(link);
  }
  return !DcGraph(world_.topology.datacenter_count(), links).connected();
}

void Simulation::fail_link(DatacenterId a, DatacenterId b) {
  RFH_ASSERT(a != b);
  const auto entry = link_key(a, b);
  if (std::find(disabled_links_.begin(), disabled_links_.end(), entry) !=
      disabled_links_.end()) {
    return;  // already down
  }
  disabled_links_.push_back(entry);
  rebuild_network();
  const std::uint64_t id = events_.emit(LinkFailed{epoch_, a, b});
  if (id != 0) events_.set_ambient_cause(id);
}

void Simulation::restore_link(DatacenterId a, DatacenterId b) {
  const auto entry = link_key(a, b);
  const auto it =
      std::find(disabled_links_.begin(), disabled_links_.end(), entry);
  if (it == disabled_links_.end()) return;
  disabled_links_.erase(it);
  rebuild_network();
  const std::uint64_t id = events_.emit(LinkRestored{epoch_, a, b});
  if (id != 0) events_.set_ambient_cause(id);
}

}  // namespace rfh
