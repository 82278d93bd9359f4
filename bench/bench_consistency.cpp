// Extension experiment — consistency cost of each placement family.
//
// The paper defers consistency maintenance to future work; this bench
// quantifies the eventual-consistency bill each replication policy runs
// up under a 20%-write workload: replica version lag (how far copies
// trail the primary), stale-read fraction (reads answered by lagging
// copies), and writes lost when a mass failure promotes a lagging
// survivor.
//
// Expected structure: owner-oriented copies sit near the primary (short
// anti-entropy paths -> low lag); request-oriented copies sit at the
// requesters, often far away (high lag, stale reads); RFH's hubs are on
// the path between the two; random is geography-blind.
#include <iostream>

#include "bench_args.h"
#include "exec/sweep.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  scenario.write_fraction = 0.2;

  {
    const rfh::ComparativeResult r = rfh::run_comparison(scenario, jobs);
    rfh::print_figure(std::cout,
                      "Consistency: mean replica lag (versions), 20% writes",
                      r, &rfh::EpochMetrics::mean_replica_lag);
    rfh::print_figure(std::cout,
                      "Consistency: stale-read fraction, 20% writes", r,
                      &rfh::EpochMetrics::stale_read_fraction);
  }
  {
    // Same workload plus a mass failure (the plan line `crash at=150
    // count=30`): how many accepted writes does each policy's placement
    // lose in the failover?
    rfh::FaultEvent failure;
    failure.kind = rfh::FaultKind::kCrash;
    failure.at = 150;
    failure.count = 30;
    scenario.fault_plan.add(failure);
    const rfh::ComparativeResult r = rfh::run_comparison(scenario, jobs);
    rfh::print_figure(std::cout,
                      "Consistency: cumulative lost writes "
                      "(30 servers killed at epoch 150)",
                      r, &rfh::EpochMetrics::lost_writes_total);
  }
  return 0;
}
