// Extension experiment — geographic diversity and datacenter disasters.
//
// Section II-A grades placements by availability level (1 same server ..
// 5 different datacenters) and motivates replication with whole-
// datacenter disasters. This bench reports, per policy: the mean
// partition diversity level, the fraction of partitions that survive the
// loss of any single datacenter, and what actually happens when the
// busiest datacenter is destroyed mid-run (data losses + recovery).
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_args.h"
#include "exec/sweep.h"
#include "fault/chaos.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "metrics/diversity.h"

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  scenario.epochs = 200;

  {
    const rfh::ComparativeResult r = rfh::run_comparison(scenario, jobs);
    rfh::print_figure(std::cout,
                      "Diversity: mean partition availability level", r,
                      &rfh::EpochMetrics::diversity_level);
    rfh::print_figure(std::cout,
                      "Diversity: datacenter-survivable fraction", r,
                      &rfh::EpochMetrics::dc_survivable_fraction);
  }

  std::printf("# datacenter disaster at epoch 100 (destroy DC A):\n");
  std::printf("%-10s %12s %14s %16s\n", "policy", "data-losses",
              "replicas@99", "replicas@199");
  for (const rfh::PolicyKind kind :
       {rfh::PolicyKind::kRequest, rfh::PolicyKind::kOwner,
        rfh::PolicyKind::kRandom, rfh::PolicyKind::kRfh}) {
    auto sim = rfh::make_simulation(scenario, kind);
    sim->run(100);
    const std::uint32_t before = sim->cluster().total_replicas();
    // DC A's outage, applied before epoch 100 steps.
    const rfh::FaultPlan plan =
        rfh::FaultPlan::parse(
            "outage at=100 dc=" +
            std::to_string(sim->world().by_letter('A').value()))
            .plan;
    rfh::ChaosController(plan, scenario.sim.seed).before_epoch(*sim, 100);
    sim->run(100);
    std::printf("%-10s %12u %14u %16u\n",
                std::string(rfh::policy_name(kind)).c_str(),
                sim->data_losses(), before, sim->cluster().total_replicas());
  }
  return 0;
}
