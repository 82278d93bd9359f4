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
//
// The per-epoch figures are one world and one draw of crash victims (the
// default seed). One draw can decide the lost-writes ranking, so the
// bench then reruns both comparisons over world and chaos seeds 1-9 and
// prints, per policy, the median and quartiles of each figure's tail
// mean.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.h"
#include "exec/sweep.h"
#include "harness/report.h"

namespace {

constexpr std::size_t kTail = 50;
constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kLastSeed = 9;

/// The same workload plus a mass failure (the plan line `crash at=150
/// count=30`).
rfh::Scenario with_crash(rfh::Scenario scenario) {
  rfh::FaultEvent failure;
  failure.kind = rfh::FaultKind::kCrash;
  failure.at = 150;
  failure.count = 30;
  scenario.fault_plan.add(failure);
  return scenario;
}

/// The p-quantile of `values`, linearly interpolated between order
/// statistics (so for nine seeds the quartiles are the 3rd and 7th
/// values).
double quantile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

struct Figure {
  const char* name;
  double rfh::EpochMetrics::* field;
  bool after_crash;
};

constexpr std::array<Figure, 3> kFigures = {{
    {"lost_writes", &rfh::EpochMetrics::lost_writes_total, true},
    {"replica_lag", &rfh::EpochMetrics::mean_replica_lag, false},
    {"stale_reads", &rfh::EpochMetrics::stale_read_fraction, false},
}};

}  // namespace

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
    // How many accepted writes does each policy's placement lose in the
    // failover?
    const rfh::ComparativeResult r =
        rfh::run_comparison(with_crash(scenario), jobs);
    rfh::print_figure(std::cout,
                      "Consistency: cumulative lost writes "
                      "(30 servers killed at epoch 150)",
                      r, &rfh::EpochMetrics::lost_writes_total);
  }

  // Tail means per figure, per policy (in run order), per seed.
  std::array<std::vector<std::vector<double>>, kFigures.size()> samples;
  std::vector<std::string> policies;
  for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    rfh::Scenario seeded = scenario;
    seeded.world.seed = seed;
    seeded.sim.seed = seed;
    const rfh::ComparativeResult steady = rfh::run_comparison(seeded, jobs);
    const rfh::ComparativeResult crashed =
        rfh::run_comparison(with_crash(seeded), jobs);
    for (std::size_t f = 0; f < kFigures.size(); ++f) {
      const rfh::ComparativeResult& r =
          kFigures[f].after_crash ? crashed : steady;
      samples[f].resize(r.runs.size());
      for (std::size_t i = 0; i < r.runs.size(); ++i) {
        samples[f][i].push_back(
            rfh::tail_mean(r.runs[i], kFigures[f].field, kTail));
      }
    }
    if (policies.empty()) {
      for (const rfh::PolicyRun& run : steady.runs) {
        policies.emplace_back(rfh::policy_name(run.kind));
      }
    }
  }

  std::printf("# Consistency over world/chaos seeds %llu-%llu: tail-mean"
              "(last %zu epochs) per seed, median [q1, q3]\n",
              static_cast<unsigned long long>(kFirstSeed),
              static_cast<unsigned long long>(kLastSeed), kTail);
  std::printf("figure,policy,median,q1,q3\n");
  for (std::size_t f = 0; f < kFigures.size(); ++f) {
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const std::vector<double>& v = samples[f][i];
      std::printf("%s,%s,%.4f,%.4f,%.4f\n", kFigures[f].name,
                  policies[i].c_str(), quantile(v, 0.5), quantile(v, 0.25),
                  quantile(v, 0.75));
    }
  }
  return 0;
}
