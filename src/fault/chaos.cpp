#include "fault/chaos.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/events.h"
#include "telemetry/registry.h"

namespace rfh {

namespace {
// Dedicated stream tag ("caos"): chaos victim selection never perturbs
// the engine's workload / policy streams.
constexpr std::uint64_t kChaosStreamTag = 0x63616F73;
}  // namespace

ChaosController::ChaosController(const FaultPlan& plan, std::uint64_t seed)
    : plan_(plan),
      rng_(Rng(seed).fork(kChaosStreamTag)),
      link_down_(plan.size(), 0),
      frozen_victims_(plan.size()) {}

bool ChaosController::exhausted(Epoch epoch) const noexcept {
  if (!pending_.empty()) return false;
  if (std::find(link_down_.begin(), link_down_.end(), char{1}) !=
      link_down_.end()) {
    return false;
  }
  for (const std::vector<ServerId>& frozen : frozen_victims_) {
    if (!frozen.empty()) return false;
  }
  return plan_.empty() || epoch > plan_.horizon();
}

std::uint64_t ChaosController::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : injected_by_kind_) total += n;
  return total;
}

std::vector<ServerId> ChaosController::pick_live(const Simulation& sim,
                                                 std::uint32_t n) {
  const std::size_t live = sim.cluster().live_server_count();
  if (live <= 1) return {};
  // The engine refuses to kill the last live server; leave one standing.
  const std::size_t want = std::min<std::size_t>(n, live - 1);
  return sim.cluster().live_at_ranks(
      rng_.sample_without_replacement(live, want));
}

std::vector<ServerId> ChaosController::pop_dead(const Simulation& sim,
                                                std::uint32_t n) {
  std::vector<ServerId> revived;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < dead_pool_.size(); ++i) {
    const ServerId s = dead_pool_[i];
    if (revived.size() < n && !sim.cluster().alive(s)) {
      revived.push_back(s);
    } else {
      dead_pool_[kept++] = s;
    }
  }
  dead_pool_.resize(kept);
  return revived;
}

void ChaosController::kill_batch(Simulation& sim,
                                 std::vector<ServerId> victims,
                                 FaultKind kind, Applied& applied,
                                 const KillCallback& on_kill,
                                 std::uint64_t cause) {
  (void)kind;
  if (victims.empty()) return;
  {
    // Parent every ServerFailed (and the promotions/reseeds they force)
    // to the FaultInjected event that ordered the kills.
    const CauseScope scope(sim.events(), cause);
    sim.fail_servers(victims);
  }
  if (on_kill) on_kill(victims);
  dead_pool_.insert(dead_pool_.end(), victims.begin(), victims.end());
  applied.killed.insert(applied.killed.end(), victims.begin(), victims.end());
}

std::uint64_t ChaosController::record(Simulation& sim, Epoch epoch,
                                      FaultKind kind, Applied& applied,
                                      std::uint32_t servers, DatacenterId dc,
                                      DatacenterId a, DatacenterId b,
                                      double magnitude) {
  ++applied.faults;
  ++injected_by_kind_[static_cast<std::size_t>(kind)];
  const std::uint64_t id = sim.events().emit(FaultInjected{
      epoch, fault_kind_name(kind), servers, dc, a, b, magnitude});
  // The injection is the new root disturbance: statistical echoes with no
  // tighter cause (TrafficShift, SloBreach) chain here.
  if (id != 0) sim.events().set_ambient_cause(id);
  if (sim.telemetry() != nullptr) {
    sim.telemetry()
        ->counter("rfh_faults_injected_total",
                  {{"kind", fault_kind_name(kind)}},
                  "Chaos faults injected by the fault plan, by kind.")
        .inc(1.0);
  }
  return id;
}

ChaosController::Applied ChaosController::before_epoch(
    Simulation& sim, Epoch epoch, const KillCallback& on_kill) {
  Applied applied;

  // Scheduled outage recoveries come first so a revived datacenter can be
  // re-hit by a crash wave due the same epoch (the reverse order would
  // silently skip the dead victims).
  for (std::size_t i = 0; i < pending_.size();) {
    if (pending_[i].at != epoch) {
      ++i;
      continue;
    }
    sim.recover_servers(pending_[i].servers);
    applied.recovered.insert(applied.recovered.end(),
                             pending_[i].servers.begin(),
                             pending_[i].servers.end());
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  for (std::size_t i = 0; i < plan_.events().size(); ++i) {
    const FaultEvent& ev = plan_.events()[i];
    switch (ev.kind) {
      case FaultKind::kCrash: {
        if (ev.at != epoch) break;
        std::vector<ServerId> victims;
        if (ev.servers.empty()) {
          victims = pick_live(sim, ev.count);
        } else {
          for (const ServerId s : ev.servers) {
            if (sim.cluster().alive(s) &&
                sim.cluster().live_server_count() >
                    victims.size() + 1) {
              victims.push_back(s);
            }
          }
        }
        // The FaultInjected event precedes its side effects so the kill
        // wave (and everything it forces) chains to it.
        const auto n = static_cast<std::uint32_t>(victims.size());
        const std::uint64_t cause = record(sim, epoch, ev.kind, applied, n);
        kill_batch(sim, std::move(victims), ev.kind, applied, on_kill, cause);
        break;
      }
      case FaultKind::kRecover: {
        if (ev.at != epoch) break;
        std::vector<ServerId> revived;
        if (ev.servers.empty()) {
          revived = pop_dead(sim, ev.count);
        } else {
          for (const ServerId s : ev.servers) {
            if (!sim.cluster().alive(s)) revived.push_back(s);
          }
        }
        const std::uint64_t cause =
            record(sim, epoch, ev.kind, applied,
                   static_cast<std::uint32_t>(revived.size()));
        {
          const CauseScope scope(sim.events(), cause);
          sim.recover_servers(revived);
        }
        applied.recovered.insert(applied.recovered.end(), revived.begin(),
                                 revived.end());
        break;
      }
      case FaultKind::kDatacenterOutage: {
        if (ev.at != epoch) break;
        // A plan file can name a datacenter the world doesn't have; a
        // non-event beats an out-of-bounds abort mid-run.
        if (ev.dc.value() >= sim.topology().datacenter_count()) break;
        // Enumerate the victims (the datacenter's live servers) up front
        // so FaultInjected can be emitted — with its final server count —
        // before the kills it causes.
        std::vector<ServerId> victims;
        for (const ServerId s : sim.topology().servers_in(ev.dc)) {
          if (sim.cluster().alive(s)) victims.push_back(s);
        }
        // Never take down the only datacenter still standing.
        if (victims.empty() ||
            sim.cluster().live_server_count() <= victims.size()) {
          break;
        }
        const std::uint64_t cause =
            record(sim, epoch, ev.kind, applied,
                   static_cast<std::uint32_t>(victims.size()), ev.dc);
        {
          const CauseScope scope(sim.events(), cause);
          sim.fail_servers(victims);
        }
        if (on_kill) on_kill(victims);
        applied.killed.insert(applied.killed.end(), victims.begin(),
                              victims.end());
        if (ev.recover_after > 0) {
          pending_.push_back({epoch + ev.recover_after, victims});
        } else {
          dead_pool_.insert(dead_pool_.end(), victims.begin(), victims.end());
        }
        break;
      }
      case FaultKind::kLinkDown: {
        if (ev.link_a.value() >= sim.topology().datacenter_count() ||
            ev.link_b.value() >= sim.topology().datacenter_count()) {
          break;
        }
        if (epoch == ev.at && link_down_[i] == 0) {
          if (!sim.link_failure_would_partition(ev.link_a, ev.link_b)) {
            const std::uint64_t cause = record(sim, epoch, ev.kind, applied,
                                               0, {}, ev.link_a, ev.link_b);
            const CauseScope scope(sim.events(), cause);
            sim.fail_link(ev.link_a, ev.link_b);
            link_down_[i] = 1;
          }
        }
        if (ev.restore_at > 0 && epoch == ev.restore_at &&
            link_down_[i] != 0) {
          sim.restore_link(ev.link_a, ev.link_b);
          link_down_[i] = 0;
        }
        break;
      }
      case FaultKind::kLinkFlap: {
        if (ev.link_a.value() >= sim.topology().datacenter_count() ||
            ev.link_b.value() >= sim.topology().datacenter_count()) {
          break;
        }
        const bool in_window = epoch >= ev.at && epoch < ev.until;
        const bool want_down =
            in_window && (epoch - ev.at) % ev.period < ev.down;
        if (want_down && link_down_[i] == 0) {
          if (!sim.link_failure_would_partition(ev.link_a, ev.link_b)) {
            const std::uint64_t cause = record(sim, epoch, ev.kind, applied,
                                               0, {}, ev.link_a, ev.link_b);
            const CauseScope scope(sim.events(), cause);
            sim.fail_link(ev.link_a, ev.link_b);
            link_down_[i] = 1;
          }
        } else if (!want_down && link_down_[i] != 0) {
          sim.restore_link(ev.link_a, ev.link_b);
          link_down_[i] = 0;
        }
        break;
      }
      case FaultKind::kChurn: {
        if (epoch < ev.at || epoch >= ev.until ||
            (epoch - ev.at) % ev.period != 0) {
          break;
        }
        // Revive before killing so a wave never resurrects its own
        // victims (fresh kills land at the back of the pool).
        std::vector<ServerId> revived = pop_dead(sim, ev.recover);
        sim.recover_servers(revived);
        applied.recovered.insert(applied.recovered.end(), revived.begin(),
                                 revived.end());
        std::vector<ServerId> victims = pick_live(sim, ev.kill);
        const std::uint32_t n = static_cast<std::uint32_t>(victims.size());
        const std::uint64_t cause = record(sim, epoch, ev.kind, applied, n);
        kill_batch(sim, std::move(victims), ev.kind, applied, on_kill, cause);
        break;
      }
      case FaultKind::kFlashCrowd: {
        if (epoch == ev.at) {
          record(sim, epoch, ev.kind, applied, 0, {}, {}, {}, ev.factor);
        }
        break;
      }
      case FaultKind::kZoneOutage: {
        if (ev.at != epoch) break;
        // Correlated regional failure: every live server of every
        // datacenter whose continent matches the zone index. A zone the
        // world doesn't populate is a non-event, like a bad outage dc.
        std::vector<ServerId> victims;
        for (const Datacenter& dc : sim.topology().datacenters()) {
          if (static_cast<std::uint32_t>(dc.continent) != ev.zone) continue;
          for (const ServerId s : sim.topology().servers_in(dc.id)) {
            if (sim.cluster().alive(s)) victims.push_back(s);
          }
        }
        // Never take down the last zone still standing.
        if (victims.empty() ||
            sim.cluster().live_server_count() <= victims.size()) {
          break;
        }
        const std::uint64_t cause = record(
            sim, epoch, ev.kind, applied,
            static_cast<std::uint32_t>(victims.size()), {}, {}, {},
            static_cast<double>(ev.zone));
        {
          const CauseScope scope(sim.events(), cause);
          sim.fail_servers(victims);
        }
        if (on_kill) on_kill(victims);
        applied.killed.insert(applied.killed.end(), victims.begin(),
                              victims.end());
        if (ev.recover_after > 0) {
          pending_.push_back({epoch + ev.recover_after, victims});
        } else {
          dead_pool_.insert(dead_pool_.end(), victims.begin(), victims.end());
        }
        break;
      }
      case FaultKind::kStaleStats: {
        if (epoch == ev.at) {
          // Freeze the victims' smoothed series: they keep feeding their
          // epoch-`at` numbers into Eqs. 9-11/17 until `until`.
          std::vector<ServerId> victims;
          if (ev.servers.empty()) {
            victims = pick_live(sim, ev.count);
          } else {
            for (const ServerId s : ev.servers) {
              if (sim.cluster().alive(s)) victims.push_back(s);
            }
          }
          if (!victims.empty()) {
            const std::uint64_t cause =
                record(sim, epoch, ev.kind, applied,
                       static_cast<std::uint32_t>(victims.size()));
            const CauseScope scope(sim.events(), cause);
            for (const ServerId s : victims) sim.set_stats_frozen(s, true);
            frozen_victims_[i] = std::move(victims);
          }
        }
        if (epoch == ev.until && !frozen_victims_[i].empty()) {
          for (const ServerId s : frozen_victims_[i]) {
            sim.set_stats_frozen(s, false);
          }
          frozen_victims_[i].clear();
        }
        break;
      }
    }
  }

  // The surge multiplier is a pure function of the plan and the epoch, so
  // overlapping flash crowds compose and expiry needs no bookkeeping.
  double multiplier = 1.0;
  for (const FaultEvent& ev : plan_.events()) {
    if (ev.kind == FaultKind::kFlashCrowd && epoch >= ev.at &&
        epoch < ev.at + ev.duration) {
      multiplier *= ev.factor;
    }
  }
  sim.set_traffic_multiplier(multiplier);

  return applied;
}

}  // namespace rfh
