// Extension experiment — elasticity under a diurnal load cycle.
//
// The paper's core pitch is resilience to demand *swings* ("always
// maintain maximum number of replicas in case of explosive query load
// outburst or save resources with fewer replicas at the expense of
// performance"). The flash-crowd experiment moves demand in space; this
// one moves it in time: lambda(t) swings sinusoidally +/-60% around the
// Table I mean with a 100-epoch period.
//
// Expected structure: RFH's suicide path lets its replica census breathe
// with the load (high correlation between census and offered load);
// grow-only schemes stay provisioned for the peak (flat census, near-zero
// correlation) and waste the trough capacity.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <optional>
#include <vector>

#include "bench_args.h"
#include "exec/parallel_for.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "workload/generator.h"

namespace {

// Pearson correlation between the offered load and the replica census.
double census_load_correlation(const rfh::PolicyRun& run,
                               const rfh::DiurnalWorkload& reference,
                               std::size_t skip) {
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;
  double n = 0.0;
  for (std::size_t e = skip; e < run.series.size(); ++e) {
    const double x = reference.mean_at(static_cast<rfh::Epoch>(e));
    const double y = run.series[e].total_replicas;
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
    n += 1.0;
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  // run_comparison builds workloads from the scenario; a diurnal scenario
  // is not one of the Table I settings, so drive run_policy directly with
  // custom simulations.
  rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  scenario.epochs = 400;

  rfh::WorkloadParams params;
  params.partitions = scenario.sim.partitions;
  params.datacenters = 10;
  params.zipf_exponent = scenario.zipf_exponent;
  const rfh::Epoch period = 100;
  const double amplitude = 0.6;
  const rfh::DiurnalWorkload reference(params, period, amplitude);

  std::cout << "# Diurnal elasticity: lambda(t) = 300*(1 + 0.6*sin(2pi*t/"
            << period << ")), " << scenario.epochs << " epochs\n";

  // The four policy runs are independent (each builds its own world,
  // workload and simulation), so fan them out one shard per policy, each
  // writing its own slot — output is bit-identical for every --jobs value.
  const rfh::PolicyKind kinds[] = {
      rfh::PolicyKind::kRequest, rfh::PolicyKind::kOwner,
      rfh::PolicyKind::kRandom, rfh::PolicyKind::kRfh};
  auto run_kind = [&](rfh::PolicyKind kind) {
    rfh::World world = rfh::build_paper_world(scenario.world);
    auto workload =
        std::make_unique<rfh::DiurnalWorkload>(params, period, amplitude);
    rfh::Simulation sim(std::move(world), scenario.sim, std::move(workload),
                        rfh::make_policy(kind));
    rfh::MetricsCollector collector;
    rfh::PolicyRun run;
    run.kind = kind;
    for (rfh::Epoch e = 0; e < scenario.epochs; ++e) {
      run.series.push_back(collector.collect(sim, sim.step()));
    }
    return run;
  };
  const unsigned workers = std::min<unsigned>(
      jobs == 0 ? rfh::ThreadPool::default_jobs() : jobs,
      static_cast<unsigned>(std::size(kinds)));
  std::optional<rfh::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  std::vector<rfh::PolicyRun> runs(std::size(kinds));
  rfh::parallel_for_shards(pool ? &*pool : nullptr, runs.size(),
                           static_cast<unsigned>(runs.size()),
                           [&](unsigned /*shard*/, rfh::IndexRange range) {
                             runs[range.begin] = run_kind(kinds[range.begin]);
                           });

  std::vector<rfh::NamedSeries> series;
  std::printf("# census-load correlation (epochs 100+):");
  for (const rfh::PolicyRun& run : runs) {
    std::printf(" %s=%.3f", std::string(rfh::policy_name(run.kind)).c_str(),
                census_load_correlation(run, reference, 100));
    series.push_back(rfh::NamedSeries{
        std::string(rfh::policy_name(run.kind)),
        rfh::extract_u32(run.series, &rfh::EpochMetrics::total_replicas)});
  }
  std::printf("\n");
  rfh::write_csv(std::cout, series);
  return 0;
}
