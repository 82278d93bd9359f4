// Large-N scaling of the intra-epoch parallel engine.
//
// The paper simulates 10 datacenters x 10 servers. This bench builds
// synthetic ring+chord worlds of 100-server datacenters at 1k / 10k /
// 100k total servers (partitions and demand scaled proportionally) and
// reports epochs/sec for RFH — serial, and again with the engine sharded
// across a thread pool (Simulation::set_jobs) when more than one worker
// is available. The threaded pass must reproduce the serial per-epoch
// metrics bit-for-bit; any mismatch fails the bench.
//
// Usage:
//   bench_scalability [--smoke] [--jobs=N] [--profile]
//
// --smoke shrinks the sweep to 500/1000-server worlds for CI, where
// scripts/bench_diff.py gates the report against the committed
// bench/results/BENCH_scalability.json baseline: the serial_n*/jobs_n*
// stages carry the timings, and the summary metrics hold only simulated
// outputs, so any metric drift is a behaviour change.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_args.h"
#include "bench_report.h"
#include "exec/thread_pool.h"
#include "harness/scenario.h"
#include "metrics/collector.h"
#include "telemetry/profiler.h"

namespace {

struct SizePoint {
  std::uint32_t n_dcs;
  rfh::Epoch warmup;
  rfh::Epoch measured;
};

// A fingerprint of everything the engine computes per epoch; two runs
// that agree on every field of every epoch ran the same simulation.
struct EpochDigest {
  double utilization;
  double unserved;
  double path_length;
  double latency_ms;
  double replicas;

  bool operator==(const EpochDigest&) const = default;
};

struct RunResult {
  double epoch_ms = 0.0;
  std::vector<EpochDigest> digests;
  double utilization_tail = 0.0;
  double unserved_tail = 0.0;
};

// One fresh simulation over `size`, stepping warmup + measured epochs and
// timing the measured span. Deterministic: the world/workload seeds are
// fixed, so two calls with different `jobs` must produce equal digests.
RunResult run_once(const SizePoint& size, unsigned jobs,
                   rfh::BenchReport& report, const std::string& stage_name,
                   bool profile) {
  rfh::Scenario scenario;
  scenario.datacenters = size.n_dcs;
  scenario.world.rooms_per_datacenter = 2;
  scenario.world.racks_per_room = 5;
  scenario.world.servers_per_rack = 10;  // 100 servers per datacenter
  scenario.sim.partitions = 8 * size.n_dcs;
  scenario.engine_jobs = jobs;
  const std::unique_ptr<rfh::Simulation> sim =
      rfh::make_simulation(scenario, rfh::PolicyKind::kRfh);
  rfh::PhaseProfiler profiler;
  if (profile) sim->set_profiler(&profiler);
  sim->run(size.warmup);

  RunResult result;
  rfh::MetricsCollector collector;
  result.digests.reserve(size.measured);
  const auto start = std::chrono::steady_clock::now();
  {
    const auto stage = report.stage(stage_name);
    for (rfh::Epoch e = 0; e < size.measured; ++e) {
      const rfh::EpochMetrics m = collector.collect(*sim, sim->step());
      result.digests.push_back(EpochDigest{
          m.utilization, m.unserved_fraction, m.path_length,
          m.latency_mean_ms, static_cast<double>(m.total_replicas)});
    }
  }
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  result.epoch_ms = elapsed / static_cast<double>(size.measured);

  const std::size_t tail =
      std::min<std::size_t>(size.measured / 2 + 1, result.digests.size());
  for (std::size_t i = result.digests.size() - tail;
       i < result.digests.size(); ++i) {
    result.utilization_tail += result.digests[i].utilization;
    result.unserved_tail += result.digests[i].unserved;
  }
  result.utilization_tail /= static_cast<double>(tail);
  result.unserved_tail /= static_cast<double>(tail);
  if (profile) {
    profiler.finalize();
    std::printf("# --- %s phase breakdown ---\n", stage_name.c_str());
    profiler.write_table(std::cout, "# ");
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--profile") == 0) profile = true;
  }
  const unsigned jobs_flag = rfh::bench_jobs(argc, argv);
  const unsigned jobs =
      jobs_flag == 0 ? rfh::ThreadPool::default_jobs() : jobs_flag;

  // Epoch budgets shrink with N so the full sweep stays minutes, not
  // hours; the 100k point must still clear >1 epochs/sec (ROADMAP). The
  // smoke points are sized so every timed stage clears bench_diff's 1 ms
  // jitter floor.
  const std::vector<SizePoint> sizes =
      smoke ? std::vector<SizePoint>{{5, 20, 40}, {10, 40, 80}}
            : std::vector<SizePoint>{{10, 40, 80}, {100, 10, 20},
                                     {1000, 3, 8}};

  rfh::BenchReport report("scalability");
  std::printf("# RFH large-N scaling (100-server DCs, demand 30 "
              "queries/epoch per DC, jobs=%u)\n", jobs);
  std::printf("%8s %11s %13s %13s %8s %11s %10s\n", "servers", "partitions",
              "serial ep/s", "jobs ep/s", "speedup", "utilization",
              "unserved");

  bool identical = true;
  for (const SizePoint& size : sizes) {
    const std::uint32_t servers = 100 * size.n_dcs;
    // += instead of operator+ on temporaries: GCC 12 -O3 raises a
    // spurious -Wrestrict on the latter (PR105651).
    std::string n("n");
    n += std::to_string(servers);

    const RunResult serial = run_once(size, 1, report, "serial_" + n,
                                      profile);
    report.add_metric("utilization_" + n, serial.utilization_tail);
    report.add_metric("unserved_" + n, serial.unserved_tail);

    double jobs_eps = 0.0;
    double speedup = 1.0;
    if (jobs > 1) {
      const RunResult threaded = run_once(size, jobs, report, "jobs_" + n,
                                          profile);
      jobs_eps = 1000.0 / threaded.epoch_ms;
      speedup = serial.epoch_ms / threaded.epoch_ms;
      if (threaded.digests != serial.digests) {
        identical = false;
        std::fprintf(stderr,
                     "FAIL: %s: jobs=%u per-epoch metrics diverge from "
                     "serial\n", n.c_str(), jobs);
      }
    }

    std::printf("%8u %11u %13.2f %13.2f %7.2fx %11.3f %10.3f\n", servers,
                8 * size.n_dcs, 1000.0 / serial.epoch_ms, jobs_eps, speedup,
                serial.utilization_tail, serial.unserved_tail);
  }

  report.write_file();
  if (!identical) return 1;
  return 0;
}
