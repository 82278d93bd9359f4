#include "check/fuzzer.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "topology/world.h"

namespace rfh {

namespace {

// Cases run on the paper world (CheckCase::datacenters stays 0).
constexpr std::uint32_t kDatacenters = kPaperDatacenters;

std::uint32_t u32_in(Rng& rng, std::uint32_t lo, std::uint32_t hi) {
  return lo + static_cast<std::uint32_t>(rng.uniform(hi - lo + 1));
}

FaultEvent make_fault_event(Rng& rng, Epoch epochs, bool allow_outage) {
  FaultEvent ev;
  // Inject somewhere in [1, epochs - 2] so at least one epoch runs before
  // and after the fault.
  ev.at = u32_in(rng, 1, std::max<Epoch>(1, epochs - 2));

  std::uint32_t kind = static_cast<std::uint32_t>(rng.uniform(9));
  // At most one correlated mass-kill (datacenter outage or zone outage)
  // per case: a second one could take down every zone.
  if (!allow_outage && (kind == 2 || kind == 7)) kind = 0;
  switch (kind) {
    case 0:  // crash
      ev.kind = FaultKind::kCrash;
      ev.count = u32_in(rng, 1, 3);
      break;
    case 1:  // recover (a no-op without prior chaos kills; still valid)
      ev.kind = FaultKind::kRecover;
      ev.count = u32_in(rng, 1, 2);
      break;
    case 2:  // outage
      ev.kind = FaultKind::kDatacenterOutage;
      ev.dc = DatacenterId{static_cast<std::uint32_t>(
          rng.uniform(kDatacenters))};
      ev.recover_after = rng.uniform(2) == 0 ? 0 : u32_in(rng, 2, 6);
      break;
    case 3: {  // linkdown
      ev.kind = FaultKind::kLinkDown;
      const auto a = static_cast<std::uint32_t>(rng.uniform(kDatacenters));
      const auto b =
          (a + 1 + static_cast<std::uint32_t>(rng.uniform(kDatacenters - 1))) %
          kDatacenters;
      ev.link_a = DatacenterId{a};
      ev.link_b = DatacenterId{b};
      ev.restore_at = rng.uniform(2) == 0 ? 0 : ev.at + u32_in(rng, 1, 6);
      break;
    }
    case 4: {  // flap
      ev.kind = FaultKind::kLinkFlap;
      const auto a = static_cast<std::uint32_t>(rng.uniform(kDatacenters));
      const auto b =
          (a + 1 + static_cast<std::uint32_t>(rng.uniform(kDatacenters - 1))) %
          kDatacenters;
      ev.link_a = DatacenterId{a};
      ev.link_b = DatacenterId{b};
      ev.until = ev.at + u32_in(rng, 2, 9);
      ev.period = u32_in(rng, 2, 4);
      ev.down = u32_in(rng, 1, ev.period);
      break;
    }
    case 5:  // churn
      ev.kind = FaultKind::kChurn;
      ev.until = ev.at + u32_in(rng, 2, 11);
      ev.period = u32_in(rng, 1, 4);
      ev.kill = u32_in(rng, 1, 3);
      ev.recover = static_cast<std::uint32_t>(rng.uniform(ev.kill + 1));
      break;
    case 6:  // flashcrowd
      ev.kind = FaultKind::kFlashCrowd;
      ev.duration = u32_in(rng, 1, 5);
      // Quantize to 2 decimals so the factor survives FaultPlan's %.12g
      // text serialization bit-exactly (canonical round-trip guarantee).
      ev.factor =
          std::round(rng.uniform_real_range(1.5, 6.0) * 100.0) / 100.0;
      break;
    case 7:  // zoneoutage (correlated regional kill)
      ev.kind = FaultKind::kZoneOutage;
      // Any geo::Continent index; a zone the paper world leaves empty is
      // a validated non-event, same as an outage of a dead datacenter.
      ev.zone = static_cast<std::uint32_t>(rng.uniform(6));
      ev.recover_after = rng.uniform(2) == 0 ? 0 : u32_in(rng, 2, 6);
      break;
    default:  // stalestats (Byzantine stale load reports)
      ev.kind = FaultKind::kStaleStats;
      ev.until = ev.at + u32_in(rng, 2, 9);
      ev.count = u32_in(rng, 1, 3);
      break;
  }
  return ev;
}

}  // namespace

CheckCase make_fuzz_case(std::uint64_t seed) {
  Rng rng = Rng(seed).fork(kFuzzStreamTag);

  CheckCase c;
  c.seed = seed;

  // Small worlds find divergences as well as big ones and run much
  // faster: 20-50 servers across the fixed 10 datacenters.
  c.rooms_per_datacenter = 1;
  c.racks_per_room = u32_in(rng, 1, 2);
  c.servers_per_rack = u32_in(rng, 2, 5);

  c.partitions = u32_in(rng, 4, 48);
  c.epochs = u32_in(rng, 10, 40);
  switch (rng.uniform(3)) {
    case 0:
      c.workload = WorkloadKind::kUniform;
      break;
    case 1:
      c.workload = WorkloadKind::kFlashCrowd;
      break;
    default:
      c.workload = WorkloadKind::kHotspotShift;
      break;
  }
  c.zipf = rng.uniform_real_range(0.4, 1.2);

  c.alpha = rng.uniform_real_range(0.05, 0.9);
  c.alpha_weights_history = rng.uniform(2) == 0;
  c.beta = rng.uniform_real_range(1.0, 4.0);
  c.gamma = rng.uniform_real_range(0.5, 3.0);
  c.delta = rng.uniform_real_range(0.02, 0.45);
  c.mu = rng.uniform_real_range(0.25, 2.0);
  c.phi = rng.uniform_real_range(0.35, 0.95);
  c.failure_rate = rng.uniform_real_range(0.05, 0.3);
  c.min_availability = rng.uniform_real_range(0.55, 0.95);

  const auto n_events = static_cast<std::uint32_t>(rng.uniform(4));  // 0..3
  bool allow_outage = true;
  for (std::uint32_t i = 0; i < n_events; ++i) {
    const FaultEvent ev = make_fault_event(rng, c.epochs, allow_outage);
    if (ev.kind == FaultKind::kDatacenterOutage ||
        ev.kind == FaultKind::kZoneOutage) {
      allow_outage = false;
    }
    c.fault_plan.add(ev);
  }

  // Redundancy axis, drawn after everything else so replica-mode cases
  // reproduce the pre-EC generator exactly (same draw prefix): ~1/3 of
  // cases run erasure-coded with a small stripe.
  if (rng.uniform(3) == 0) {
    c.redundancy = RedundancyMode::kErasure;
    c.ec_k = u32_in(rng, 2, 4);
    c.ec_m = u32_in(rng, 1, 2);
  }
  return c;
}

}  // namespace rfh
