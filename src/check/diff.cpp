#include "check/diff.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "check/reference.h"
#include "fault/chaos.h"
#include "fault/invariants.h"
#include "harness/scenario.h"
#include "obs/sinks.h"
#include "sim/engine.h"

namespace rfh {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_u32(std::uint32_t v) { return std::to_string(v); }

/// Replay the engine's pre-step failure events into the reference.
/// Consecutive ServerFailed events form one fail_servers batch (the
/// chaos controller always emits a FaultInjected / PrimaryPromoted /
/// Reseeded event between batches), so lost-copy handling runs at the
/// same granularity on both sides.
void mirror_prestep_events(const std::vector<Event>& events,
                           ReferenceEngine& ref) {
  std::vector<ServerId> batch;
  const auto flush = [&] {
    if (!batch.empty()) {
      ref.fail_servers(batch);
      batch.clear();
    }
  };
  for (const Event& event : events) {
    if (const auto* failed = std::get_if<ServerFailed>(&event)) {
      batch.push_back(failed->server);
      continue;
    }
    flush();
    if (const auto* recovered = std::get_if<ServerRecovered>(&event)) {
      const ServerId s[] = {recovered->server};
      ref.recover_servers(s);
    } else if (const auto* link = std::get_if<LinkFailed>(&event)) {
      ref.fail_link(link->a, link->b);
    } else if (const auto* restored = std::get_if<LinkRestored>(&event)) {
      ref.restore_link(restored->a, restored->b);
    } else if (const auto* frozen = std::get_if<StatsFrozen>(&event)) {
      ref.set_stats_frozen(frozen->server, frozen->frozen);
    }
    // FaultInjected / PrimaryPromoted / Reseeded / StripeLost only
    // delimit batches (the reference's own fail_servers replays the
    // stripe scan, so StripeLost needs no mirroring of its own).
  }
  flush();
}

/// The engine's applied actions for one epoch, in emission (apply) order,
/// rebuilt from the in-step event slice.
std::vector<RefAppliedAction> engine_applied(const std::vector<Event>& events,
                                             std::size_t from) {
  std::vector<RefAppliedAction> out;
  for (std::size_t i = from; i < events.size(); ++i) {
    const Event& event = events[i];
    if (const auto* rep = std::get_if<ReplicaAdded>(&event)) {
      out.push_back(RefAppliedAction{ActionKind::kReplicate, rep->partition,
                                     rep->source, rep->target, rep->why.rule});
    } else if (const auto* mig = std::get_if<MigrationExecuted>(&event)) {
      out.push_back(RefAppliedAction{ActionKind::kMigrate, mig->partition,
                                     mig->from, mig->to, mig->why.rule});
    } else if (const auto* sui = std::get_if<Suicide>(&event)) {
      out.push_back(RefAppliedAction{ActionKind::kSuicide, sui->partition,
                                     sui->server, ServerId::invalid(),
                                     sui->why.rule});
    }
  }
  return out;
}

std::string server_name(ServerId s) {
  return s.valid() ? std::to_string(s.value()) : std::string("<invalid>");
}

std::string action_to_string(const RefAppliedAction& a) {
  std::string out = action_kind_name(a.kind);
  out += " p=" + std::to_string(a.partition.value());
  out += " a=" + server_name(a.a);
  out += " b=" + server_name(a.b);
  out += " rule=";
  out += rule_name(a.rule);
  return out;
}

class Comparator {
 public:
  Comparator(DiffOutcome& out, Epoch epoch) : out_(out), epoch_(epoch) {}

  [[nodiscard]] bool failed() const noexcept { return !out_.ok; }

  void mismatch(std::string quantity, std::string detail) {
    if (failed()) return;  // keep the first divergence only
    out_.ok = false;
    out_.epoch = epoch_;
    out_.quantity = std::move(quantity);
    out_.detail = std::move(detail);
  }

  void check_double(const char* quantity, std::string where, double engine,
                    double reference) {
    if (failed() || engine == reference) return;
    mismatch(quantity, std::move(where) + "engine=" + fmt_double(engine) +
                           " reference=" + fmt_double(reference));
  }

  void check_u32(const char* quantity, std::string where, std::uint32_t engine,
                 std::uint32_t reference) {
    if (failed() || engine == reference) return;
    mismatch(quantity, std::move(where) + "engine=" + fmt_u32(engine) +
                           " reference=" + fmt_u32(reference));
  }

 private:
  DiffOutcome& out_;
  Epoch epoch_;
};

void compare_epoch(const Simulation& sim, const EpochReport& er,
                   const std::vector<RefAppliedAction>& engine_actions,
                   const ReferenceEngine& ref, const RefEpochReport& rr,
                   DiffOutcome& out) {
  Comparator cmp(out, er.epoch);

  // 1. Scalar epoch totals (cheap and the most diagnostic first).
  cmp.check_double("total_queries", "", er.total_queries, rr.total_queries);

  // 2. Applied decisions, element-wise with rules.
  if (!cmp.failed() && engine_actions.size() != rr.applied.size()) {
    cmp.mismatch("applied.size",
                 "engine=" + std::to_string(engine_actions.size()) +
                     " reference=" + std::to_string(rr.applied.size()));
  }
  for (std::size_t i = 0; !cmp.failed() && i < engine_actions.size(); ++i) {
    if (engine_actions[i] == rr.applied[i]) continue;
    cmp.mismatch("applied[" + std::to_string(i) + "]",
                 "engine={" + action_to_string(engine_actions[i]) +
                     "} reference={" + action_to_string(rr.applied[i]) + "}");
  }

  // 3. Report counters.
  cmp.check_u32("replications", "", er.replications, rr.replications);
  cmp.check_u32("migrations", "", er.migrations, rr.migrations);
  cmp.check_u32("suicides", "", er.suicides, rr.suicides);
  cmp.check_u32("dropped_actions", "", er.dropped_actions,
                rr.dropped_actions);
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    cmp.check_u32("dropped_by_reason",
                  std::string("reason=") +
                      drop_reason_name(static_cast<DropReason>(i)) + " ",
                  er.dropped_by_reason[i], rr.dropped_by_reason[i]);
  }
  cmp.check_u32("repairs_starved", "", er.repairs_starved,
                rr.repairs_starved);
  cmp.check_double("unserved_queries", "", er.unserved_queries,
                   rr.unserved_queries);
  cmp.check_double("mean_path_length", "", er.mean_path_length,
                   rr.mean_path_length);
  cmp.check_double("replication_cost", "", er.replication_cost,
                   rr.replication_cost);
  cmp.check_double("migration_cost", "", er.migration_cost,
                   rr.migration_cost);
  cmp.check_u32("total_replicas", "", er.total_replicas, rr.total_replicas);
  cmp.check_u32("live_server_count", "", sim.cluster().live_server_count(),
                ref.live_server_count());

  // 4. Placement census per partition.
  const std::uint32_t partitions = sim.config().partitions;
  for (std::uint32_t pv = 0; !cmp.failed() && pv < partitions; ++pv) {
    const PartitionId p{pv};
    const std::string where = "partition=" + std::to_string(pv) + " ";
    const ServerId engine_primary = sim.cluster().primary_of(p);
    const ServerId ref_primary = ref.primary_of(p);
    if (engine_primary != ref_primary) {
      cmp.mismatch("primary", where + "engine=" + server_name(engine_primary) +
                                  " reference=" + server_name(ref_primary));
      break;
    }
    const auto census = [](std::span<const Replica> replicas) {
      std::vector<std::pair<ServerId, bool>> out_list;
      out_list.reserve(replicas.size());
      for (const Replica& r : replicas) out_list.emplace_back(r.server, r.primary);
      std::sort(out_list.begin(), out_list.end());
      return out_list;
    };
    if (census(sim.cluster().replicas_of(p)) != census(ref.replicas_of(p))) {
      cmp.mismatch("replica_census",
                   where + "engine_count=" +
                       std::to_string(sim.cluster().replicas_of(p).size()) +
                       " reference_count=" +
                       std::to_string(ref.replicas_of(p).size()));
      break;
    }
  }

  // 5. Smoothed statistics (Eqs. 9-11), exact.
  const std::size_t servers = sim.topology().server_count();
  for (std::uint32_t pv = 0; !cmp.failed() && pv < partitions; ++pv) {
    const PartitionId p{pv};
    cmp.check_double("avg_query", "partition=" + std::to_string(pv) + " ",
                     sim.stats().avg_query(p), ref.avg_query(p));
    for (std::uint32_t sv = 0; !cmp.failed() && sv < servers; ++sv) {
      const ServerId s{sv};
      cmp.check_double("node_traffic",
                       "partition=" + std::to_string(pv) +
                           " server=" + std::to_string(sv) + " ",
                       sim.stats().node_traffic(p, s), ref.node_traffic(p, s));
    }
  }

  cmp.check_u32("data_losses", "", sim.data_losses(), ref.data_losses());
}

}  // namespace

std::string DiffOutcome::to_string() const {
  if (ok) {
    return "ok after " + std::to_string(epochs_run) + " epochs";
  }
  std::string out = invariant_failure ? "invariant violation" : "divergence";
  out += " at epoch " + std::to_string(epoch) + ": " + quantity;
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

DiffOutcome run_check_case(const CheckCase& c) {
  const Scenario scenario = c.to_scenario();
  const std::unique_ptr<Simulation> sim =
      make_simulation(scenario, PolicyKind::kRfh);
  ReferenceEngine ref(scenario);

  // Cleared per epoch and sliced at `mark` to separate the pre-step
  // (chaos) stream from the in-step stream.
  CaptureSink capture;
  sim->events().add_sink(&capture);

  std::optional<ChaosController> chaos;
  if (!scenario.fault_plan.empty()) {
    chaos.emplace(scenario.fault_plan, scenario.sim.seed);
  }
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  std::size_t violations_seen = 0;

  DiffOutcome out;
  for (Epoch e = 0; e < scenario.epochs; ++e) {
    capture.events.clear();
    if (chaos) chaos->before_epoch(*sim, e);
    mirror_prestep_events(capture.events, ref);
    ref.set_traffic_multiplier(sim->traffic_multiplier());

    const std::size_t mark = capture.events.size();
    const EpochReport er = sim->step();
    const RefEpochReport rr = ref.step();
    out.epochs_run = e + 1;

    compare_epoch(*sim, er, engine_applied(capture.events, mark), ref, rr,
                  out);
    if (!out.ok) return out;

    checker.check_epoch(*sim, er);
    if (checker.violations().size() > violations_seen) {
      const auto& v = checker.violations()[violations_seen];
      out.ok = false;
      out.invariant_failure = true;
      out.epoch = v.epoch;
      out.quantity = invariant_name(v.id);
      out.detail = v.detail;
      return out;
    }
    violations_seen = checker.violations().size();
  }
  return out;
}

}  // namespace rfh
