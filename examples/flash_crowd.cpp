// Flash crowd demo (the paper's headline scenario, Section II-F).
//
// Runs all four policies through the 4-stage flash-crowd schedule
// (80% of queries from H,I,J then A,B,C then E,F,G then uniform) and
// prints stage-by-stage replica utilization — reproducing in miniature
// the collapse of the request-oriented scheme at each stage switch and
// RFH's quick re-adaptation (paper Fig. 3(b)).
//
//   $ ./flash_crowd
#include <cstdio>

#include "exec/sweep.h"
#include "harness/scenario.h"

int main() {
  const rfh::Scenario scenario = rfh::Scenario::paper_flash_crowd();
  const rfh::ComparativeResult result = rfh::run_comparison(scenario);

  const rfh::Epoch stage_len = scenario.epochs / 4;
  std::printf("stage (epochs)     ");
  for (const rfh::PolicyRun& run : result.runs) {
    std::printf("%10s", std::string(rfh::policy_name(run.kind)).c_str());
  }
  std::printf("   <- mean replica utilization\n");

  const char* stage_names[4] = {"1: hot H,I,J", "2: hot A,B,C",
                                "3: hot E,F,G", "4: uniform  "};
  for (int stage = 0; stage < 4; ++stage) {
    const std::size_t lo = static_cast<std::size_t>(stage) * stage_len;
    const std::size_t hi = lo + stage_len;
    std::printf("%s (%3zu-%3zu)", stage_names[stage], lo, hi - 1);
    for (const rfh::PolicyRun& run : result.runs) {
      double sum = 0.0;
      for (std::size_t e = lo; e < hi && e < run.series.size(); ++e) {
        sum += run.series[e].utilization;
      }
      std::printf("%10.3f", sum / static_cast<double>(stage_len));
    }
    std::printf("\n");
  }

  std::printf("\nfinal replica count / cumulative migration cost:\n");
  for (const rfh::PolicyRun& run : result.runs) {
    const rfh::EpochMetrics& last = run.series.back();
    std::printf("  %-8s %4u replicas, migration cost %8.1f\n",
                std::string(rfh::policy_name(run.kind)).c_str(),
                last.total_replicas, last.migration_cost_total);
  }
  return 0;
}
