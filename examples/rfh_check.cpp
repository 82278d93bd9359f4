// rfh_check: the differential-oracle & fuzzing driver (src/check/).
//
// Modes (mutually exclusive):
//   --seeds=N            fuzz N cases from --seed-start (default 0)
//   --budget-seconds=S   fuzz from --seed-start until the wall-clock
//                        budget is spent (CI smoke mode)
//   --replay=FILE        re-run one committed case JSON
//   --replay-dir=DIR     re-run every *.json case in a directory
//   --mode=meanfield     mean-field analytic oracle: run the engine at
//                        1k / 10k / 100k servers under uniform churn and
//                        check the measured replica census against the
//                        stationary distribution of check/mean_field.h;
//                        the sim-vs-analytic total-variation error must
//                        shrink monotonically with fleet size. Writes
//                        BENCH_meanfield.json (bench_report format).
//
// Other flags:
//   --seed-start=N       first fuzz seed (default 0)
//   --out-dir=DIR        where to write the minimized case on divergence
//                        (default "."); the file is <name>.json with a
//                        one-line report on stdout
//   --smoke              meanfield only: drop the 100k point (CI); the
//                        report is named "meanfield_smoke" so
//                        bench_diff.py gates it against its own
//                        committed baseline
//   --jobs=N|auto        meanfield only: engine worker threads, an
//                        integer in [1, 1024] or auto (one per hardware
//                        thread, the default)
//   --quiet              only print the final summary / failure report
//
// Exit codes: 0 = all runs matched; 1 = divergence or invariant
// violation (minimized case written in fuzz modes); 2 = usage or I/O
// error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.h"
#include "check/case.h"
#include "check/diff.h"
#include "check/fuzzer.h"
#include "check/mean_field.h"
#include "check/shrink.h"
#include "core/rfh_policy.h"
#include "exec/thread_pool.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "harness/cli.h"
#include "harness/scenario.h"
#include "sim/engine.h"
#include "topology/world.h"
#include "workload/generator.h"

namespace {

struct Options {
  std::uint64_t seeds = 0;
  std::uint64_t seed_start = 0;
  double budget_seconds = 0.0;
  std::string replay;
  std::string replay_dir;
  std::string out_dir = ".";
  bool meanfield = false;
  bool smoke = false;
  unsigned jobs = 0;  ///< 0 = auto
  bool jobs_seen = false;
  bool quiet = false;
};

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  out = value;
  return true;
}

bool parse_args(int argc, char** argv, Options& opt, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--seeds=", 0) == 0) {
      if (!parse_u64(value("--seeds="), opt.seeds) || opt.seeds == 0) {
        error = "--seeds wants a positive integer: " + arg;
        return false;
      }
    } else if (arg.rfind("--seed-start=", 0) == 0) {
      if (!parse_u64(value("--seed-start="), opt.seed_start)) {
        error = "--seed-start wants a non-negative integer: " + arg;
        return false;
      }
    } else if (arg.rfind("--budget-seconds=", 0) == 0) {
      std::uint64_t seconds = 0;
      if (!parse_u64(value("--budget-seconds="), seconds) || seconds == 0) {
        error = "--budget-seconds wants a positive integer: " + arg;
        return false;
      }
      opt.budget_seconds = static_cast<double>(seconds);
    } else if (arg.rfind("--replay=", 0) == 0) {
      opt.replay = value("--replay=");
    } else if (arg.rfind("--replay-dir=", 0) == 0) {
      opt.replay_dir = value("--replay-dir=");
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      opt.out_dir = value("--out-dir=");
    } else if (arg == "--mode=meanfield") {
      opt.meanfield = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::optional<unsigned> jobs = rfh::parse_jobs(value("--jobs="));
      if (!jobs) {
        error = std::string(rfh::kJobsError) + ": " + arg;
        return false;
      }
      opt.jobs = *jobs;
      opt.jobs_seen = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      error = "unknown flag: " + arg;
      return false;
    }
  }
  const int modes = (opt.seeds > 0 ? 1 : 0) +
                    (opt.budget_seconds > 0.0 ? 1 : 0) +
                    (opt.replay.empty() ? 0 : 1) +
                    (opt.replay_dir.empty() ? 0 : 1) +
                    (opt.meanfield ? 1 : 0);
  if (modes != 1) {
    error =
        "pick exactly one mode: --seeds=N, --budget-seconds=S, "
        "--replay=FILE, --replay-dir=DIR or --mode=meanfield";
    return false;
  }
  if ((opt.smoke || opt.jobs_seen) && !opt.meanfield) {
    error = "--smoke and --jobs only apply to --mode=meanfield";
    return false;
  }
  return true;
}

int replay_one(const std::string& path, bool quiet) {
  const rfh::CheckCase::ParseResult parsed = rfh::CheckCase::load(path);
  if (!parsed.ok) {
    std::fprintf(stderr, "rfh_check: %s: %s\n", path.c_str(),
                 parsed.error.c_str());
    return 2;
  }
  const rfh::DiffOutcome outcome = rfh::run_check_case(parsed.value);
  if (!outcome.ok) {
    std::printf("FAIL %s: %s\n", path.c_str(), outcome.to_string().c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("ok   %s: %s\n", path.c_str(), outcome.to_string().c_str());
  }
  return 0;
}

int replay_dir(const std::string& dir, bool quiet) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "rfh_check: cannot read %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (files.empty()) {
    std::fprintf(stderr, "rfh_check: no *.json cases in %s\n", dir.c_str());
    return 2;
  }
  std::sort(files.begin(), files.end());
  int worst = 0;
  for (const std::string& file : files) {
    worst = std::max(worst, replay_one(file, quiet));
  }
  if (worst == 0 && !quiet) {
    std::printf("rfh_check: %zu corpus cases green\n", files.size());
  }
  return worst;
}

/// Shrink the diverging case and write it under out_dir. Returns the
/// written path (empty when the write failed).
std::string minimize_and_save(const rfh::CheckCase& failing,
                              const Options& opt) {
  // Truncating the horizon to just past the first divergence makes every
  // shrink probe cheap.
  rfh::CheckCase seed_case = failing;
  const rfh::DiffOutcome first = rfh::run_check_case(seed_case);
  if (!first.ok && !first.invariant_failure) {
    seed_case.epochs = std::min(seed_case.epochs, first.epoch + 1);
  }
  const rfh::ShrinkResult shrunk = rfh::shrink_case(
      seed_case,
      [](const rfh::CheckCase& c) { return !rfh::run_check_case(c).ok; });

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/case_seed_" +
                           std::to_string(failing.seed) + ".json";
  if (!shrunk.smallest.save(path)) {
    std::fprintf(stderr, "rfh_check: failed to write %s\n", path.c_str());
    return {};
  }
  return path;
}

int fuzz(const Options& opt) {
  const auto start = std::chrono::steady_clock::now();
  const auto budget_spent = [&] {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= opt.budget_seconds;
  };

  std::uint64_t ran = 0;
  for (std::uint64_t seed = opt.seed_start;; ++seed) {
    if (opt.seeds > 0 && ran >= opt.seeds) break;
    if (opt.budget_seconds > 0.0 && ran > 0 && budget_spent()) break;

    const rfh::CheckCase c = rfh::make_fuzz_case(seed);
    const rfh::DiffOutcome outcome = rfh::run_check_case(c);
    ++ran;
    if (outcome.ok) {
      if (!opt.quiet) {
        std::printf("ok   seed=%llu: %s\n",
                    static_cast<unsigned long long>(seed),
                    outcome.to_string().c_str());
      }
      continue;
    }
    std::printf("FAIL seed=%llu: %s\n", static_cast<unsigned long long>(seed),
                outcome.to_string().c_str());
    const std::string path = minimize_and_save(c, opt);
    if (!path.empty()) {
      std::printf("minimized case written to %s\n", path.c_str());
    }
    return 1;
  }
  std::printf("rfh_check: %llu seeds divergence-free\n",
              static_cast<unsigned long long>(ran));
  return 0;
}

/// Build the scenario every sweep point shares (only the world size
/// varies). The knobs keep the engine inside the census chain's validity
/// envelope (see check/mean_field.h):
///  * min_availability = 0.9995 with the default failure_rate 0.1 puts
///    the Eq. 14 floor at r_min = 4, so the stationary census has real
///    spread over {2, 3, 4} instead of collapsing onto the floor;
///  * the Eq. 12 overload rule structurally disarmed (the model has no
///    overload term): beta pushed out of reach AND per-replica capacity
///    far above any partition's demand — the predicate's demand clamp
///    caps the threshold at 90% of a partition's total traffic no matter
///    how large beta is, but it also requires the holder to exceed its
///    physical capacity, which can then never happen;
///  * migration and suicide disabled for the same reason;
///  * a period-1 churn wave killing 2% of the fleet each epoch, with
///    recover == kill. The controller revives before killing, so every
///    wave picks its victims from a full fleet and the per-server death
///    probability is exactly kill / n — the model's death_prob.
rfh::Scenario meanfield_scenario(std::uint32_t n_dcs, rfh::Epoch horizon) {
  rfh::Scenario scenario;
  scenario.world.rooms_per_datacenter = 2;
  scenario.world.racks_per_room = 5;
  scenario.world.servers_per_rack = 10;  // 100 servers per datacenter
  scenario.world.per_replica_capacity_lo = 1e9;
  scenario.world.per_replica_capacity_hi = 1e9;
  // Hub placement concentrates copies; the default 16-vnode cap starts
  // dropping repairs (kNodeCap) once hot hubs fill up, which would make
  // repair_prob < 1 — a modelling error, not a finite-size one. The
  // partitions hint raises the cap to exactly never-binding.
  scenario.sim.partitions = 8 * n_dcs;
  scenario.world.partitions_hint = scenario.sim.partitions;
  scenario.sim.min_availability = 0.9995;
  scenario.sim.beta = 1e9;
  scenario.sim.gamma = 1e9;
  scenario.epochs = horizon;

  const std::uint32_t n_servers = 100 * n_dcs;
  const auto kill = static_cast<std::uint32_t>(
      std::lround(0.02 * static_cast<double>(n_servers)));
  rfh::FaultEvent churn;
  churn.kind = rfh::FaultKind::kChurn;
  churn.at = 0;
  churn.until = horizon;
  churn.period = 1;
  churn.kill = kill;
  churn.recover = kill;
  scenario.fault_plan.add(churn);
  return scenario;
}

int run_meanfield(const Options& opt) {
  const unsigned jobs =
      opt.jobs == 0 ? rfh::ThreadPool::default_jobs() : opt.jobs;
  // Fixed per-replicate horizon at every size: the census is averaged
  // over partitions *and* epochs, and partitions scale with N, so the
  // per-replicate sample count grows tenfold per size decade. The TV
  // error at this death rate is dominated by finite-size *fluctuations*
  // (the propagation-of-chaos CLT scale, O(1/sqrt(partitions))), not by
  // the O(1/N) bias, so a fixed horizon makes the expected TV shrink
  // ~3.2x per decade — whereas shrinking the horizon with N would cancel
  // the very convergence being measured. A single run's TV is still a
  // half-normal draw (sd ~ 0.76x its mean), so adjacent sizes would
  // invert order far too often; averaging over kReplicates independent
  // seeds concentrates the estimate enough that strict monotonicity is a
  // ~3-sigma event per adjacent pair. 2% churn keeps every point in the
  // regime where repair bandwidth never saturates (repair_prob = 1).
  constexpr std::uint32_t kReplicates = 12;
  constexpr rfh::Epoch kWarmup = 10;
  constexpr rfh::Epoch kMeasured = 40;
  const std::vector<std::uint32_t> sizes =
      opt.smoke ? std::vector<std::uint32_t>{10, 100}
                : std::vector<std::uint32_t>{10, 100, 1000};

  rfh::BenchReport report(opt.smoke ? "meanfield_smoke" : "meanfield");
  std::printf("# mean-field census oracle (100-server DCs, 2%% churn per "
              "epoch, %u replicates x %llu+%llu epochs, jobs=%u)\n",
              kReplicates, static_cast<unsigned long long>(kWarmup),
              static_cast<unsigned long long>(kMeasured), jobs);
  std::printf("%8s %10s %10s %10s %12s %12s %12s\n", "servers",
              "tv", "tv_se", "maxbin", "sim E[r]", "pred E[r]", "pred avail");

  bool ok = true;
  double prev_tv = 2.0;  // TV is bounded by 1
  for (const std::uint32_t n_dcs : sizes) {
    const std::uint32_t n_servers = 100 * n_dcs;
    const rfh::Epoch horizon = kWarmup + kMeasured;
    const rfh::Scenario scenario = meanfield_scenario(n_dcs, horizon);

    const rfh::MeanFieldPrediction prediction =
        rfh::predict_census(scenario, n_servers);
    if (!prediction.converged) {
      std::fprintf(stderr,
                   "FAIL: n%u: fixed point did not converge in %u "
                   "iterations\n", n_servers, prediction.iterations);
      return 1;
    }

    double tv_sum = 0.0;
    double tv_sq = 0.0;
    double maxbin_sum = 0.0;
    double replicas_sum = 0.0;
    double avail_sum = 0.0;
    std::uint64_t dropped = 0;
    {
      std::string stage("n");
      stage += std::to_string(n_servers);
      const auto scope = report.stage(stage);
      for (std::uint32_t rep = 0; rep < kReplicates; ++rep) {
        rfh::Scenario seeded = scenario;
        seeded.sim.seed += rep;  // independent workload + chaos streams

        rfh::WorkloadParams params;
        params.partitions = seeded.sim.partitions;
        params.datacenters = n_dcs;
        params.mean_queries_per_epoch = 30.0 * n_dcs;
        std::vector<std::uint32_t> strides;
        for (std::uint32_t s = 8; s < n_dcs; s *= 8) strides.push_back(s);

        rfh::RfhPolicy::Options policy_options;
        policy_options.enable_migration = false;
        policy_options.enable_suicide = false;
        rfh::Simulation sim(
            rfh::build_synthetic_world(n_dcs, seeded.world, strides),
            seeded.sim, std::make_unique<rfh::UniformWorkload>(params),
            std::make_unique<rfh::RfhPolicy>(policy_options));
        sim.set_jobs(jobs);
        rfh::ChaosController chaos(seeded.fault_plan, seeded.sim.seed);

        // Time-averaged post-step census over the measured window.
        // Dropped repairs would mean repair_prob < 1 (a modelling error,
        // not a finite-size one), so they are counted and reported.
        std::vector<double> census(
            seeded.sim.max_replicas_per_partition + 1, 0.0);
        for (rfh::Epoch e = 0; e < horizon; ++e) {
          chaos.before_epoch(sim, e);
          const rfh::EpochReport er = sim.step();
          if (e < kWarmup) continue;
          dropped += er.dropped_actions;
          for (std::uint32_t pv = 0; pv < seeded.sim.partitions; ++pv) {
            const std::size_t k =
                sim.cluster().replicas_of(rfh::PartitionId{pv}).size();
            census[std::min(k, census.size() - 1)] += 1.0;
          }
        }

        const rfh::CensusComparison cmp =
            rfh::compare(census, prediction, seeded.sim.failure_rate);
        tv_sum += cmp.total_variation;
        tv_sq += cmp.total_variation * cmp.total_variation;
        maxbin_sum += cmp.max_bin_error;
        replicas_sum += cmp.sim_expected_replicas;
        avail_sum += cmp.sim_expected_availability;
      }
    }

    const double reps = static_cast<double>(kReplicates);
    const double tv_mean = tv_sum / reps;
    const double tv_var =
        std::max(0.0, tv_sq / reps - tv_mean * tv_mean) / (reps - 1.0);
    const double tv_se = std::sqrt(tv_var);
    std::string n("n");
    n += std::to_string(n_servers);
    report.add_metric("tv_" + n, tv_mean);
    report.add_metric("tv_se_" + n, tv_se);
    report.add_metric("maxbin_" + n, maxbin_sum / reps);
    report.add_metric("replicas_" + n, replicas_sum / reps);
    report.add_metric("availability_" + n, avail_sum / reps);
    report.add_metric("dropped_" + n, static_cast<double>(dropped));
    std::printf("%8u %10.5f %10.5f %10.5f %12.4f %12.4f %12.6f\n", n_servers,
                tv_mean, tv_se, maxbin_sum / reps, replicas_sum / reps,
                prediction.expected_replicas,
                prediction.expected_availability);

    if (tv_mean >= prev_tv) {
      ok = false;
      std::fprintf(stderr,
                   "FAIL: tv(%s)=%.6f did not shrink below the previous "
                   "size's %.6f — finite-size error must decrease with N\n",
                   n.c_str(), tv_mean, prev_tv);
    }
    prev_tv = tv_mean;
  }
  // The prediction is size-independent (kill/n = 2% at every point), so
  // record it once.
  report.add_metric("predicted_replicas",
                    rfh::predict_census(meanfield_scenario(10, 1), 1000)
                        .expected_replicas);
  report.add_metric("predicted_availability",
                    rfh::predict_census(meanfield_scenario(10, 1), 1000)
                        .expected_availability);

  report.write_file();
  if (ok) std::printf("rfh_check: mean-field error monotone in N\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!parse_args(argc, argv, opt, error)) {
    std::fprintf(stderr, "rfh_check: %s\n", error.c_str());
    std::fprintf(stderr,
                 "usage: rfh_check (--seeds=N | --budget-seconds=S | "
                 "--replay=FILE | --replay-dir=DIR | --mode=meanfield) "
                 "[--seed-start=N] [--out-dir=DIR] [--smoke] [--jobs=N|auto] "
                 "[--quiet]\n");
    return 2;
  }
  if (opt.meanfield) return run_meanfield(opt);
  if (!opt.replay.empty()) return replay_one(opt.replay, opt.quiet);
  if (!opt.replay_dir.empty()) return replay_dir(opt.replay_dir, opt.quiet);
  return fuzz(opt);
}
