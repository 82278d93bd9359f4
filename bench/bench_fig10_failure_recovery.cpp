// Fig. 10 — node join, failure and recovery (RFH only).
//
// 500 epochs of uniform query load; at epoch 290, 30 of the 100 servers
// are removed at random — the scenario's own `crash at=290 count=30`
// plan line, injected through the same chaos path the tests and the CLI
// use. Paper shape:
// the copy count grows, plateaus, drops sharply at the failure, then
// recovers to the initial plateau as RFH re-replicates on the survivors.
#include <iostream>

#include "bench_args.h"
#include "bench_report.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  // Single-cell bench: --jobs is accepted for the uniform bench
  // interface but there is nothing to fan out.
  (void)rfh::bench_jobs(argc, argv);
  rfh::BenchReport report("fig10_failure_recovery");
  const rfh::Scenario s = rfh::Scenario::paper_failure_recovery();
  rfh::PolicyRun run;
  {
    const auto stage = report.stage("run_rfh");
    run = rfh::run_policy(s, rfh::PolicyKind::kRfh);
  }

  std::cout << "# Fig 10: node failure and recovery (RFH), 30 servers "
               "killed at epoch 290\n";
  std::vector<rfh::NamedSeries> series;
  series.push_back(rfh::NamedSeries{
      "RFH_replicas",
      rfh::extract_u32(run.series, &rfh::EpochMetrics::total_replicas)});
  series.push_back(rfh::NamedSeries{
      "RFH_unserved_fraction",
      rfh::extract(run.series, &rfh::EpochMetrics::unserved_fraction)});
  rfh::write_csv(std::cout, series);

  // Shape summary: plateau before, trough at the failure, tail after.
  auto mean_over = [&](std::size_t lo, std::size_t hi) {
    double sum = 0.0;
    for (std::size_t e = lo; e < hi; ++e) {
      sum += run.series[e].total_replicas;
    }
    return sum / static_cast<double>(hi - lo);
  };
  std::cout << "# plateau(240-289)=" << mean_over(240, 290)
            << " trough(290-299)=" << mean_over(290, 300)
            << " recovered(450-499)=" << mean_over(450, 500) << "\n";

  report.add_metric("plateau_replicas", mean_over(240, 290));
  report.add_metric("trough_replicas", mean_over(290, 300));
  report.add_metric("recovered_replicas", mean_over(450, 500));
  report.add_metric("faults_injected",
                    static_cast<double>(run.faults_injected));
  report.add_metric("servers_killed", static_cast<double>(run.killed.size()));
  report.write_file();
  return 0;
}
