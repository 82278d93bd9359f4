#include "sim/engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/rfh_policy.h"
#include "test_util.h"

namespace rfh {
namespace {

TEST(Engine, SeedsOnePrimaryPerPartition) {
  SimConfig config;
  config.partitions = 16;
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                  config);
  EXPECT_EQ(sim->cluster().total_replicas(), 16u);
  for (std::uint32_t p = 0; p < 16; ++p) {
    const ServerId primary = sim->cluster().primary_of(PartitionId{p});
    ASSERT_TRUE(primary.valid());
    EXPECT_EQ(sim->cluster().replica_count(PartitionId{p}), 1u);
    // Ring ownership drives the initial placement.
    EXPECT_EQ(primary, sim->cluster().ring().partition_owner(PartitionId{p}));
  }
  sim->cluster().check_invariants();
}

TEST(Engine, StepAdvancesEpochAndReports) {
  auto sim = test::make_fixed_sim({QueryFlow{PartitionId{0}, DatacenterId{1}, 3.0}},
                                  std::make_unique<test::NullPolicy>());
  EXPECT_EQ(sim->epoch(), 0u);
  const EpochReport r0 = sim->step();
  EXPECT_EQ(r0.epoch, 0u);
  EXPECT_EQ(sim->epoch(), 1u);
  EXPECT_DOUBLE_EQ(r0.total_queries, 3.0);
  EXPECT_EQ(r0.replications, 0u);
  EXPECT_EQ(r0.total_replicas, sim->cluster().total_replicas());
  const EpochReport r1 = sim->step();
  EXPECT_EQ(r1.epoch, 1u);
}

TEST(Engine, RunStepsManyEpochs) {
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  sim->run(25);
  EXPECT_EQ(sim->epoch(), 25u);
}

TEST(Engine, AppliesValidReplicationWithCost) {
  const PartitionId p{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId holder_dc = probe->topology().server(holder).datacenter;
  // Pick a target in another datacenter.
  ServerId target;
  for (const Datacenter& dc : probe->topology().datacenters()) {
    if (dc.id != holder_dc) {
      target = dc.servers.front();
      break;
    }
  }

  Actions script;
  script.replications.push_back(ReplicateAction{p, target, {}});
  auto sim = test::make_fixed_sim(
      {}, std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{script}));
  const EpochReport report = sim->step();
  EXPECT_EQ(report.replications, 1u);
  EXPECT_EQ(report.dropped_actions, 0u);
  EXPECT_GT(report.replication_cost, 0.0);
  EXPECT_TRUE(sim->cluster().has_replica(p, target));
  EXPECT_DOUBLE_EQ(sim->cumulative_replication_cost(),
                   report.replication_cost);
  EXPECT_EQ(sim->cumulative_replications(), 1u);
}

TEST(Engine, DropsInvalidActionsInsteadOfCrashing) {
  const PartitionId p{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const ServerId holder = probe->cluster().primary_of(p);

  Actions bad;
  bad.replications.push_back(ReplicateAction{p, holder, {}});  // already hosts
  bad.replications.push_back(ReplicateAction{p, ServerId::invalid(), {}});
  bad.migrations.push_back(
      MigrateAction{p, ServerId{7}, ServerId{8}, {}});  // from doesn't host
  bad.migrations.push_back(
      MigrateAction{p, holder, ServerId{8}, {}});  // can't migrate primary
  bad.suicides.push_back(SuicideAction{p, holder, {}});  // can't kill primary
  bad.suicides.push_back(SuicideAction{p, ServerId{9}, {}});  // doesn't host

  auto sim = test::make_fixed_sim(
      {}, std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{bad}));
  const EpochReport report = sim->step();
  EXPECT_EQ(report.dropped_actions, 6u);
  EXPECT_EQ(report.replications, 0u);
  EXPECT_EQ(report.migrations, 0u);
  EXPECT_EQ(report.suicides, 0u);
  sim->cluster().check_invariants();
}

TEST(Engine, MigrationMovesTheCopy) {
  const PartitionId p{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const ServerId holder = probe->cluster().primary_of(p);
  ServerId a;
  ServerId b;
  for (const Server& s : probe->topology().servers()) {
    if (s.id == holder) continue;
    if (!a.valid()) {
      a = s.id;
    } else if (s.datacenter != probe->topology().server(a).datacenter) {
      b = s.id;
      break;
    }
  }

  Actions e0;
  e0.replications.push_back(ReplicateAction{p, a, {}});
  Actions e1;
  e1.migrations.push_back(MigrateAction{p, a, b, {}});
  auto sim = test::make_fixed_sim(
      {}, std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{e0, e1}));
  sim->step();
  const EpochReport report = sim->step();
  EXPECT_EQ(report.migrations, 1u);
  EXPECT_GT(report.migration_cost, 0.0);
  EXPECT_FALSE(sim->cluster().has_replica(p, a));
  EXPECT_TRUE(sim->cluster().has_replica(p, b));
  EXPECT_EQ(sim->cumulative_migrations(), 1u);
  sim->cluster().check_invariants();
}

TEST(Engine, SuicideRemovesTheCopy) {
  const PartitionId p{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const ServerId holder = probe->cluster().primary_of(p);
  const ServerId extra{holder.value() == 0 ? 1u : 0u};

  Actions e0;
  e0.replications.push_back(ReplicateAction{p, extra, {}});
  Actions e1;
  e1.suicides.push_back(SuicideAction{p, extra, {}});
  auto sim = test::make_fixed_sim(
      {}, std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{e0, e1}));
  sim->step();
  EXPECT_TRUE(sim->cluster().has_replica(p, extra));
  const EpochReport report = sim->step();
  EXPECT_EQ(report.suicides, 1u);
  EXPECT_FALSE(sim->cluster().has_replica(p, extra));
}

TEST(Engine, ReplicationBandwidthBudgetIsEnforced) {
  // Partition size of half the replication bandwidth: only 2 copies can
  // leave one source per epoch; the third replication is dropped.
  SimConfig config;
  config.partitions = 1;
  WorldOptions options = test::uniform_world_options();
  config.partition_size = options.replication_bandwidth / 2;

  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, options);
  const PartitionId p{0};
  const ServerId holder = probe->cluster().primary_of(p);
  std::vector<ServerId> targets;
  for (const Server& s : probe->topology().servers()) {
    if (s.id != holder && targets.size() < 3) targets.push_back(s.id);
  }

  Actions script;
  for (const ServerId t : targets) {
    script.replications.push_back(ReplicateAction{p, t, {}});
  }
  auto sim = test::make_fixed_sim(
      {}, std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{script}),
      config, options);
  const EpochReport report = sim->step();
  EXPECT_EQ(report.replications, 2u);
  EXPECT_EQ(report.dropped_actions, 1u);
}

TEST(Engine, TransferCostFollowsEq1) {
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const DatacenterId a{0};
  const DatacenterId b{7};
  const double d = sim->topology().distance_km(a, b);
  const Bytes s = kib(512);
  const BytesPerEpoch bw = mib(300);
  const double expected = d * sim->config().failure_rate *
                          (static_cast<double>(s) / static_cast<double>(bw));
  EXPECT_NEAR(sim->transfer_cost(a, b, s, bw), expected, 1e-12);
  // Intra-datacenter transfers cost as if 1 km, never zero.
  EXPECT_GT(sim->transfer_cost(a, a, s, bw), 0.0);
  // Migration bandwidth (smaller) makes the same transfer dearer.
  EXPECT_GT(sim->transfer_cost(a, b, s, mib(100)),
            sim->transfer_cost(a, b, s, mib(300)));
}

TEST(Engine, FailoverPromotesSurvivingReplica) {
  const PartitionId p{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const ServerId holder = probe->cluster().primary_of(p);
  const ServerId backup{holder.value() == 0 ? 1u : 0u};

  Actions e0;
  e0.replications.push_back(ReplicateAction{p, backup, {}});
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, DatacenterId{4}, 3.0}},
      std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{e0}));
  sim->step();
  sim->step();

  const ServerId victims[] = {holder};
  sim->fail_servers(victims);
  EXPECT_EQ(sim->cluster().primary_of(p), backup);
  EXPECT_EQ(sim->data_losses(), 0u);
  sim->cluster().check_invariants();
  sim->step();  // keeps running after failover
}

TEST(Engine, TotalLossReseedsAndCounts) {
  const PartitionId p{0};
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const ServerId holder = sim->cluster().primary_of(p);
  const ServerId victims[] = {holder};
  sim->fail_servers(victims);
  EXPECT_GE(sim->data_losses(), 1u);
  const ServerId reseeded = sim->cluster().primary_of(p);
  EXPECT_TRUE(reseeded.valid());
  EXPECT_TRUE(sim->cluster().alive(reseeded));
  sim->cluster().check_invariants();
}

TEST(Engine, FailureClearsDeadServerStatistics) {
  // Regression: the engine must forget a dead server's smoothed series.
  // Without TrafficStats::clear_servers on failure, the victim's
  // exponentially decaying tr-bar entries keep inflating Eq. 17's
  // numerator while mean_node_traffic() divides by the *live* server
  // count, skewing the Eq. 16 migration-benefit bar for many epochs.
  const PartitionId p{0};
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{4}, 50.0}},
                                  std::make_unique<test::NullPolicy>());
  sim->step();
  sim->step();
  const ServerId holder = sim->cluster().primary_of(p);
  ASSERT_GT(sim->stats().node_traffic(p, holder), 0.0);
  ASSERT_GT(sim->stats().server_arrival(holder), 0.0);

  const ServerId victims[] = {holder};
  sim->fail_servers(victims);
  EXPECT_DOUBLE_EQ(sim->stats().node_traffic(p, holder), 0.0);
  EXPECT_DOUBLE_EQ(sim->stats().server_arrival(holder), 0.0);

  // Eq. 17's mean now reconciles exactly with a manual sum over the
  // live servers — no stale dead-server traffic left in the numerator.
  const std::uint32_t live = sim->cluster().live_server_count();
  double live_sum = 0.0;
  for (const Server& s : sim->topology().servers()) {
    if (sim->cluster().alive(s.id)) {
      live_sum += sim->stats().node_traffic(p, s.id);
    }
  }
  EXPECT_DOUBLE_EQ(sim->stats().mean_node_traffic(p, live),
                   live_sum / static_cast<double>(live));
}

TEST(Engine, FailRandomServersKillsExactlyN) {
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const auto victims = test::crash_now(*sim, 30);
  EXPECT_EQ(victims.size(), 30u);
  EXPECT_EQ(sim->cluster().live_server_count(), 70u);
  for (const ServerId v : victims) {
    EXPECT_FALSE(sim->cluster().alive(v));
  }
  sim->recover_servers(victims);
  EXPECT_EQ(sim->cluster().live_server_count(), 100u);
  sim->cluster().check_invariants();
}

TEST(Engine, RecoverIsIdempotent) {
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>());
  const auto victims = test::crash_now(*sim, 5);
  sim->recover_servers(victims);
  sim->recover_servers(victims);  // second call is a no-op
  EXPECT_EQ(sim->cluster().live_server_count(), 100u);
}

TEST(Engine, DeterministicAcrossIdenticalRuns) {
  SimConfig config;
  config.partitions = 8;
  WorkloadParams params;
  params.partitions = 8;
  params.datacenters = 10;
  auto make = [&]() {
    return std::make_unique<Simulation>(
        build_paper_world(), config, std::make_unique<UniformWorkload>(params),
        std::make_unique<test::NullPolicy>());
  };
  auto a = make();
  auto b = make();
  for (int e = 0; e < 10; ++e) {
    const EpochReport ra = a->step();
    const EpochReport rb = b->step();
    EXPECT_DOUBLE_EQ(ra.total_queries, rb.total_queries);
    EXPECT_DOUBLE_EQ(ra.mean_path_length, rb.mean_path_length);
  }
}

TEST(Engine, LargeClusterThreadedEpochsMatchSerialAndStayInvariant) {
  // Large-N smoke for the sharded epoch phases: a 4,000-server world
  // stepped with an 8-worker pool must agree with the serial engine on
  // every per-epoch aggregate and keep the cluster invariants. This is
  // also the engine-side workload the TSan CI job races: propagate,
  // stats_update and policy_decide all fan out across real threads here.
  WorldOptions world_options;
  world_options.rooms_per_datacenter = 4;
  world_options.racks_per_room = 10;
  world_options.servers_per_rack = 10;
  SimConfig config;
  config.partitions = 128;
  WorkloadParams params;
  params.partitions = config.partitions;
  params.datacenters = 10;
  params.mean_queries_per_epoch = 600.0;
  auto make = [&]() {
    return std::make_unique<Simulation>(
        build_paper_world(world_options), config,
        std::make_unique<UniformWorkload>(params),
        std::make_unique<RfhPolicy>());
  };
  auto serial = make();
  auto threaded = make();
  threaded->set_jobs(8);
  EXPECT_EQ(threaded->jobs(), 8u);
  ASSERT_NE(threaded->pool(), nullptr);
  EXPECT_EQ(serial->pool(), nullptr);
  for (int e = 0; e < 8; ++e) {
    const EpochReport rs = serial->step();
    const EpochReport rt = threaded->step();
    EXPECT_DOUBLE_EQ(rt.total_queries, rs.total_queries) << "epoch " << e;
    EXPECT_DOUBLE_EQ(rt.mean_path_length, rs.mean_path_length)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(rt.unserved_queries, rs.unserved_queries)
        << "epoch " << e;
    EXPECT_EQ(rt.replications, rs.replications) << "epoch " << e;
    EXPECT_EQ(rt.migrations, rs.migrations) << "epoch " << e;
    EXPECT_EQ(rt.suicides, rs.suicides) << "epoch " << e;
    EXPECT_EQ(rt.total_replicas, rs.total_replicas) << "epoch " << e;
  }
  threaded->cluster().check_invariants();
}

}  // namespace
}  // namespace rfh
