// Robustness under combined and extreme regimes: simultaneous server,
// datacenter and link failures; degenerate world shapes; storage and
// vnode-cap pressure; long-run stability.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "core/rfh_policy.h"
#include "fault/invariants.h"
#include "harness/runner.h"
#include "test_util.h"

namespace rfh {
namespace {

TEST(Robustness, CombinedServerLinkAndDatacenterFailures) {
  SimConfig config;
  config.partitions = 16;
  WorkloadParams params;
  params.partitions = 16;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  sim->run(40);

  // Pile on: a link failure, a datacenter disaster, and random server
  // deaths, interleaved with stepping.
  sim->fail_link(sim->world().by_letter('I'), sim->world().by_letter('D'));
  sim->run(10);
  sim->fail_datacenter(sim->world().by_letter('C'));
  sim->run(10);
  sim->fail_random_servers(10);
  sim->run(40);
  sim->cluster().check_invariants();

  // Then heal everything and confirm the system re-absorbs it.
  std::vector<ServerId> dead;
  for (const Server& s : sim->topology().servers()) {
    if (!sim->cluster().alive(s.id)) dead.push_back(s.id);
  }
  sim->recover_servers(dead);
  sim->restore_link(sim->world().by_letter('I'), sim->world().by_letter('D'));
  sim->run(40);
  sim->cluster().check_invariants();
  EXPECT_EQ(sim->cluster().live_server_count(), 100u);
  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    EXPECT_GE(sim->cluster().replica_count(PartitionId{p}), 2u);
  }
}

TEST(Robustness, SingleDatacenterWorldStillWorks) {
  // All routing degenerates to local stages; RFH must fall back to
  // same-datacenter relief.
  World world = build_synthetic_world(1, test::uniform_world_options());
  SimConfig config;
  config.partitions = 4;
  WorkloadParams params;
  params.partitions = 4;
  params.datacenters = 1;
  params.mean_queries_per_epoch = 40.0;
  auto sim = std::make_unique<Simulation>(
      std::move(world), config, std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  for (int e = 0; e < 40; ++e) sim->step();
  sim->cluster().check_invariants();
  // Demand 40/epoch against 10 servers x capacity 2: the single
  // datacenter saturates, but copies must have grown to absorb it.
  EXPECT_GT(sim->cluster().total_replicas(), 8u);
}

TEST(Robustness, StoragePressureBindsAndIsRespected) {
  // Disks sized for ~2 copies under the 70% rule: the cluster must stay
  // within the limit everywhere and keep running (with dropped actions).
  SimConfig config;
  config.partitions = 32;
  WorldOptions options = test::uniform_world_options(
      /*capacity=*/2.0, /*channels=*/4,
      /*storage=*/Bytes{3} * SimConfig{}.partition_size);
  WorkloadParams params;
  params.partitions = 32;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(options), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  for (int e = 0; e < 60; ++e) sim->step();
  for (const Server& s : sim->topology().servers()) {
    EXPECT_LE(sim->cluster().copies_on(s.id), 2u) << "phi limit violated";
  }
  sim->cluster().check_invariants();
}

TEST(Robustness, VnodeCapBindsAndIsRespected) {
  SimConfig config;
  config.partitions = 64;
  WorldOptions options = test::uniform_world_options();
  options.max_vnodes = 1;  // one copy per server, cluster-wide cap 100
  WorkloadParams params;
  params.partitions = 64;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(options), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  for (int e = 0; e < 60; ++e) sim->step();
  EXPECT_LE(sim->cluster().total_replicas(), 100u);
  for (const Server& s : sim->topology().servers()) {
    EXPECT_LE(sim->cluster().copies_on(s.id), 1u);
  }
}

TEST(Robustness, LongRunStaysBoundedAndInvariant) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 400;
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  // Census bounded between floor and cap for the whole tail.
  for (std::size_t e = 50; e < run.series.size(); ++e) {
    EXPECT_GE(run.series[e].avg_replicas_per_partition, 1.9);
    EXPECT_LE(run.series[e].avg_replicas_per_partition, 16.0);
  }
  // No runaway cumulative churn: the last 100 epochs replicate at a far
  // lower rate than the first 100 (build-out vs steady state).
  const double early = run.series[99].replication_cost_total;
  const double late = run.series.back().replication_cost_total -
                      run.series[run.series.size() - 100].replication_cost_total;
  EXPECT_LT(late, early);
}

TEST(Robustness, ManyPartitionsFewServers) {
  // 256 partitions on the 100-server world: several vnodes per server.
  SimConfig config;
  config.partitions = 256;
  WorkloadParams params;
  params.partitions = 256;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  for (int e = 0; e < 30; ++e) sim->step();
  sim->cluster().check_invariants();
  EXPECT_GE(sim->cluster().total_replicas(), 256u);
}

TEST(Robustness, ZeroDemandIsAValidSteadyState) {
  // No queries at all: the floor is established and nothing else happens.
  SimConfig config;
  config.partitions = 8;
  auto sim = test::make_fixed_sim({}, std::make_unique<RfhPolicy>(), config);
  for (int e = 0; e < 30; ++e) sim->step();
  const std::uint32_t after_floor = sim->cluster().total_replicas();
  std::uint32_t actions = 0;
  for (int e = 0; e < 30; ++e) {
    const EpochReport r = sim->step();
    actions += r.replications + r.migrations + r.suicides;
  }
  EXPECT_EQ(actions, 0u);
  EXPECT_EQ(sim->cluster().total_replicas(), after_floor);
}

TEST(Robustness, ErasureInvariantsHoldUnderCombinedFailures) {
  // ec(4,2) on the paper world under server + datacenter failures: the
  // fragment-census and zone-diversity invariants must hold every epoch,
  // and lost stripes must be re-detected rather than silently served.
  SimConfig config;
  config.redundancy = RedundancyMode::kErasure;
  config.ec_k = 4;
  config.ec_m = 2;
  config.partitions = 16;
  WorkloadParams params;
  params.partitions = 16;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const auto step_checked = [&](int epochs) {
    for (int e = 0; e < epochs; ++e) {
      const EpochReport r = sim->step();
      checker.check_epoch(*sim, r);
    }
  };
  step_checked(30);
  sim->fail_random_servers(10);
  step_checked(10);
  sim->fail_datacenter(sim->world().by_letter('C'));
  step_checked(20);
  for (const auto& v : checker.violations()) {
    ADD_FAILURE() << "epoch " << v.epoch << " " << invariant_name(v.id)
                  << ": " << v.detail;
  }
  // Zone diversity by construction: no datacenter ever hosts more than m
  // fragments of a stripe, so losing dc C alone cannot drop below k.
  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    EXPECT_FALSE(sim->stripe_lost(PartitionId{p})) << "partition " << p;
  }
}

TEST(Robustness, DefaultVnodeCapStarvesFloorRepairsAtScale) {
  // Regression for the silent repair starvation the fixed default vnode
  // cap causes at scale: a 100-datacenter x 100-server synthetic world
  // (10k servers) carrying 800 partitions. Availability-floor repairs
  // funnel through the same lowest-id feasible targets (first-fit /
  // tied Erlang-B), so one decide pass proposes more copies at a server
  // than its 16-vnode default cap has room for, and the overflow is
  // dropped — previously indistinguishable from any other kNodeCap drop.
  // With WorldOptions::partitions_hint the cap is exactly never-binding
  // and every starved repair disappears. The warning is logged once per
  // simulation, at its first starved epoch; the report keeps the tally.
  struct Starvation {
    std::uint64_t repairs = 0;
    std::uint32_t epochs = 0;  // epochs with at least one starved repair
  };
  const auto starved_repairs = [](bool with_hint) {
    SimConfig config;
    config.partitions = 800;
    config.min_availability = 0.9995;  // floor of 4 fragments at f=0.1
    config.beta = 1e9;                 // overload rules never fire:
    config.gamma = 1e9;                // floor repairs are the only action
    WorldOptions options = test::uniform_world_options();
    options.rooms_per_datacenter = 2;
    options.racks_per_room = 5;
    options.servers_per_rack = 10;
    if (with_hint) options.partitions_hint = config.partitions;
    WorkloadParams params;
    params.partitions = config.partitions;
    params.datacenters = 100;
    params.mean_queries_per_epoch = 1.0;
    auto sim = std::make_unique<Simulation>(
        build_synthetic_world(100, options), config,
        std::make_unique<UniformWorkload>(params),
        std::make_unique<RfhPolicy>());
    Starvation starved;
    const auto step = [&] {
      const std::uint32_t n = sim->step().repairs_starved;
      starved.repairs += n;
      if (n > 0) ++starved.epochs;
    };
    for (int e = 0; e < 10; ++e) step();
    // Rolling churn keeps a repair backlog alive past the bootstrap.
    for (int wave = 0; wave < 10; ++wave) {
      sim->fail_random_servers(200);
      step();
      std::vector<ServerId> dead;
      for (const Server& s : sim->topology().servers()) {
        if (!sim->cluster().alive(s.id)) dead.push_back(s.id);
      }
      sim->recover_servers(dead);
      step();
    }
    return starved;
  };
  const LogLevel level = log_level();
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  const Starvation capped = starved_repairs(/*with_hint=*/false);
  const std::string log_text = testing::internal::GetCapturedStderr();
  set_log_level(level);
  EXPECT_GT(capped.repairs, 0u);
  EXPECT_GT(capped.epochs, 1u);
  std::size_t warnings = 0;
  for (std::size_t at = log_text.find("repairs starved on node caps");
       at != std::string::npos;
       at = log_text.find("repairs starved on node caps", at + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1u);
  EXPECT_EQ(starved_repairs(/*with_hint=*/true).repairs, 0u);
}

TEST(Logging, LevelFilterWorks) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log(LogLevel::kDebug, "should be suppressed %d", 1);  // must not crash
  log(LogLevel::kError, "visible %s", "message");
  set_log_level(before);
}

TEST(Logging, ConcurrentLinesStayWhole) {
  // Each line is formatted whole and written with one call, so warnings
  // from concurrent threads (sweep cells on a pool) never interleave
  // mid-line. The long message also takes the heap-buffer path.
  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  const std::string tail(600, 'x');
  testing::internal::CaptureStderr();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &tail] {
        for (int i = 0; i < kLines; ++i) {
          log(LogLevel::kWarn, "thread %d line %d %s", t, i,
              i % 50 == 0 ? tail.c_str() : "end");
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const std::string captured = testing::internal::GetCapturedStderr();

  std::vector<std::vector<bool>> seen(kThreads,
                                      std::vector<bool>(kLines, false));
  std::istringstream in(captured);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    int t = -1;
    int i = -1;
    char rest[8] = {};
    ASSERT_EQ(std::sscanf(line.c_str(), "[rfh WARN] thread %d line %d %7s", &t,
                          &i, rest),
              3)
        << "torn line: " << line;
    ASSERT_TRUE(t >= 0 && t < kThreads && i >= 0 && i < kLines) << line;
    const std::string want =
        "[rfh WARN] thread " + std::to_string(t) + " line " +
        std::to_string(i) + " " + (i % 50 == 0 ? tail : std::string("end"));
    EXPECT_EQ(line, want);
    EXPECT_FALSE(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]);
    seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] = true;
  }
  EXPECT_EQ(lines, kThreads * kLines);
}

}  // namespace
}  // namespace rfh
