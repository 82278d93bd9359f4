// Failure drill (paper Fig. 10 and Section III-G, extended): run RFH
// under uniform load, then throw the paper's whole failure taxonomy at
// it — a mass server kill, a network (link) failure, and a full
// datacenter disaster — recovering each in turn. Watch the copy count
// crater and rebuild, and the unserved fraction spike and decay.
//
// The drill is one fault plan, applied by a ChaosController before each
// epoch steps:
//
//   crash    at=100 count=30
//   recover  at=170 count=30
//   linkdown at=200 a=I b=D restore_at=260
//   outage   at=300 dc=F recover_after=60
//
//   $ ./failure_drill
#include <cstdio>

#include "fault/chaos.h"
#include "harness/scenario.h"

int main() {
  rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  scenario.epochs = 400;

  auto sim = rfh::make_simulation(scenario, rfh::PolicyKind::kRfh);
  const rfh::DatacenterId tokyo = sim->world().by_letter('I');
  const rfh::DatacenterId vancouver = sim->world().by_letter('D');
  const rfh::DatacenterId zurich = sim->world().by_letter('F');

  rfh::FaultPlan drill;
  rfh::FaultEvent crash;
  crash.kind = rfh::FaultKind::kCrash;
  crash.at = 100;
  crash.count = 30;
  drill.add(crash);
  rfh::FaultEvent recover;
  recover.kind = rfh::FaultKind::kRecover;
  recover.at = 170;
  recover.count = 30;
  drill.add(recover);
  rfh::FaultEvent link;
  link.kind = rfh::FaultKind::kLinkDown;
  link.at = 200;
  link.link_a = tokyo;
  link.link_b = vancouver;
  link.restore_at = 260;
  drill.add(link);
  rfh::FaultEvent disaster;
  disaster.kind = rfh::FaultKind::kDatacenterOutage;
  disaster.at = 300;
  disaster.dc = zurich;
  disaster.recover_after = 60;
  drill.add(disaster);
  rfh::ChaosController chaos(drill, scenario.sim.seed);

  for (rfh::Epoch e = 0; e < scenario.epochs; ++e) {
    const rfh::ChaosController::Applied applied = chaos.before_epoch(*sim, e);
    switch (e) {
      case 100:
        std::printf("-- epoch 100: killed %zu random servers (%u live)\n",
                    applied.killed.size(), sim->cluster().live_server_count());
        break;
      case 170:
        std::printf("-- epoch 170: recovered them (%u live)\n",
                    sim->cluster().live_server_count());
        break;
      case 200:
        std::printf("-- epoch 200: trans-Pacific link I-D down "
                    "(Asia reroutes via Beijing/Zurich)\n");
        break;
      case 260:
        std::printf("-- epoch 260: link I-D restored\n");
        break;
      case 300:
        std::printf("-- epoch 300: datacenter F (Zurich) destroyed "
                    "(%zu servers)\n",
                    applied.killed.size());
        break;
      case 360:
        std::printf("-- epoch 360: Zurich rebuilt\n");
        break;
      default:
        break;
    }
    const rfh::EpochReport report = sim->step();
    if (e % 20 == 0 || e == 100 || e == 101 || e == 300 || e == 301) {
      std::printf("epoch %3u: %3u replicas, %2u data losses, "
                  "unserved %.1f%%\n",
                  report.epoch, report.total_replicas, sim->data_losses(),
                  report.total_queries > 0.0
                      ? 100.0 * report.unserved_queries / report.total_queries
                      : 0.0);
    }
  }
  sim->cluster().check_invariants();
  std::printf("final: %u replicas on %u live servers, %u data losses\n",
              sim->cluster().total_replicas(),
              sim->cluster().live_server_count(), sim->data_losses());
  return 0;
}
