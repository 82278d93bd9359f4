// Ablation A1 — sensitivity of RFH to its threshold parameters.
//
// Sweeps beta (holder overload, Eq. 12), gamma (traffic-hub mark,
// Eq. 13), delta (suicide, Eq. 15) and mu (migration benefit, Eq. 16)
// one at a time around the Table I defaults, under a shortened uniform
// workload, and reports the steady-state utilization / copy count /
// unserved fraction / migration count for each setting.
//
// What to expect: lower beta or gamma -> more copies, less unserved;
// higher delta -> leaner but riskier (more unserved spikes); mu shifts
// the replicate/migrate mix.
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <vector>

#include "bench_args.h"
#include "exec/sweep.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "workload/generator.h"

namespace {

struct Variant {
  const char* knob;
  double value;
};

void report_run(const char* knob, double value, const rfh::PolicyRun& run) {
  const std::size_t tail = 50;
  double util = 0.0;
  double replicas = 0.0;
  double unserved = 0.0;
  for (std::size_t e = run.series.size() - tail; e < run.series.size(); ++e) {
    util += run.series[e].utilization;
    replicas += run.series[e].total_replicas;
    unserved += run.series[e].unserved_fraction;
  }
  util /= tail;
  replicas /= tail;
  unserved /= tail;
  std::printf("%-6s %6.2f   %11.3f %10.1f %10.3f %12u\n", knob, value, util,
              replicas, unserved, run.series.back().migrations_total);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  rfh::Scenario base = rfh::Scenario::paper_random_query();
  base.epochs = 150;

  std::printf("# Ablation: RFH threshold sensitivity (uniform query, "
              "%u epochs, tail-50 means)\n",
              base.epochs);
  std::printf("%-6s %6s   %11s %10s %10s %12s\n", "knob", "value",
              "utilization", "replicas", "unserved", "migrations");

  // Build the whole knob grid as independent sweep cells, fan them out on
  // the pool, and print rows in grid order — the table is bit-identical
  // for every --jobs value.
  std::vector<Variant> variants;
  std::vector<rfh::SweepCell> cells;
  auto add = [&](const char* knob, double value, const rfh::Scenario& s) {
    variants.push_back(Variant{knob, value});
    rfh::SweepCell cell;
    cell.label = knob;
    cell.scenario = s;
    cell.policy = rfh::PolicyKind::kRfh;
    cells.push_back(std::move(cell));
  };

  add("base", 0.0, base);

  for (const double beta : {1.2, 1.5, 3.0, 4.0}) {
    rfh::Scenario s = base;
    s.sim.beta = beta;
    add("beta", beta, s);
  }
  for (const double gamma : {1.1, 2.0, 3.0}) {
    rfh::Scenario s = base;
    s.sim.gamma = gamma;
    add("gamma", gamma, s);
  }
  for (const double delta : {0.05, 0.4, 0.8}) {
    rfh::Scenario s = base;
    s.sim.delta = delta;
    add("delta", delta, s);
  }
  for (const double mu : {0.25, 2.0, 4.0}) {
    rfh::Scenario s = base;
    s.sim.mu = mu;
    add("mu", mu, s);
  }
  for (const double alpha : {0.05, 0.5, 0.8}) {
    rfh::Scenario s = base;
    s.sim.alpha = alpha;
    add("alpha", alpha, s);
  }
  // Eq. 10 orientation ablation: as printed, alpha weights history
  // (0.2 -> fast adaptation); flipped, alpha weights the new sample
  // (0.2 -> strong smoothing). See SimConfig::alpha_weights_history.
  for (const double alpha : {0.2, 0.5}) {
    rfh::Scenario s = base;
    s.sim.alpha = alpha;
    s.sim.alpha_weights_history = false;
    add("alphaN", alpha, s);
  }

  rfh::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  const std::vector<rfh::SweepCellResult> results =
      rfh::SweepRunner(sweep_options).run(cells);
  for (std::size_t i = 0; i < results.size(); ++i) {
    report_run(variants[i].knob, variants[i].value, results[i].run);
  }

  // Slashdot-spike study: 10x one-epoch demand spikes every 40 epochs.
  // With the default decision hysteresis (overload streak 3) the spikes
  // are ignored; with streak 1 the policy chases every spike and churns.
  std::printf("\n# Spike train (10x for 1 epoch, every 40): churn = "
              "replications + suicides over 160 epochs\n");
  std::printf("%-22s %10s %12s %10s\n", "variant", "churn", "replicas",
              "unserved");
  for (const std::uint32_t streak : {1u, 3u}) {
    rfh::WorkloadParams params;
    params.partitions = base.sim.partitions;
    params.datacenters = 10;
    params.zipf_exponent = base.zipf_exponent;
    rfh::RfhPolicy::Options options;
    options.overload_streak_epochs = streak;
    rfh::Simulation sim(rfh::make_world(base), base.sim,
                        std::make_unique<rfh::SpikeWorkload>(params, 40),
                        std::make_unique<rfh::RfhPolicy>(options));
    sim.run(40);  // settle
    std::uint32_t churn = 0;
    double replicas = 0.0;
    double unserved = 0.0;
    const int measured = 160;
    for (int e = 0; e < measured; ++e) {
      const rfh::EpochReport r = sim.step();
      churn += r.replications + r.suicides;
      replicas += r.total_replicas;
      unserved += r.total_queries > 0.0
                      ? r.unserved_queries / r.total_queries
                      : 0.0;
    }
    std::printf("overload-streak=%-6u %10u %12.1f %10.3f\n", streak, churn,
                replicas / measured, unserved / measured);
  }
  return 0;
}
