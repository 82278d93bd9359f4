// Edge cases across modules that the mainline suites do not reach.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "consistency/tracker.h"
#include "test_util.h"

namespace rfh {
namespace {

TEST(EngineEdge, MigrationBandwidthBudgetIsEnforced) {
  // Partition size = migration bandwidth: a source server can move only
  // one copy per epoch; the second migration from the same source drops.
  SimConfig config;
  config.partitions = 2;
  WorldOptions options = test::uniform_world_options();
  config.partition_size = options.migration_bandwidth;

  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, options);
  // Both partitions get a copy on the same source server, then both are
  // asked to migrate away in one epoch.
  ServerId source;
  for (const Server& s : probe->topology().servers()) {
    if (probe->cluster().can_accept(s.id, PartitionId{0}) &&
        probe->cluster().can_accept(s.id, PartitionId{1})) {
      source = s.id;
      break;
    }
  }
  ASSERT_TRUE(source.valid());
  ServerId target_a;
  ServerId target_b;
  for (const Server& s : probe->topology().servers()) {
    if (s.id == source) continue;
    if (!target_a.valid()) {
      target_a = s.id;
    } else if (s.id != target_a &&
               s.datacenter != probe->topology().server(target_a).datacenter) {
      target_b = s.id;
      break;
    }
  }

  Actions e0;
  e0.replications.push_back(ReplicateAction{PartitionId{0}, source, {}});
  e0.replications.push_back(ReplicateAction{PartitionId{1}, source, {}});
  Actions e1;
  e1.migrations.push_back(MigrateAction{PartitionId{0}, source, target_a, {}});
  e1.migrations.push_back(MigrateAction{PartitionId{1}, source, target_b, {}});
  auto sim = test::make_fixed_sim(
      {}, std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{e0, e1}),
      config, options);
  sim->step();
  const EpochReport report = sim->step();
  EXPECT_EQ(report.migrations, 1u);
  EXPECT_EQ(report.dropped_actions, 1u);
}

TEST(EngineEdge, SeedingSpreadsPrimariesUnderVnodeCap) {
  // max_vnodes = 1: the 64 primaries must land on 64 distinct servers
  // even though the raw ring owner may collide.
  SimConfig config;
  config.partitions = 64;
  WorldOptions options = test::uniform_world_options();
  options.max_vnodes = 1;
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                  config, options);
  std::set<ServerId> homes;
  for (std::uint32_t p = 0; p < 64; ++p) {
    homes.insert(sim->cluster().primary_of(PartitionId{p}));
  }
  EXPECT_EQ(homes.size(), 64u);
  for (const Server& s : sim->topology().servers()) {
    EXPECT_LE(sim->cluster().copies_on(s.id), 1u);
  }
}

TEST(ConsistencyEdge, DelaysBeyondHistoryClampToOldestRetained) {
  // A copy whose hop distance exceeds the history window still advances
  // (it sees the oldest retained version), it just lags more.
  const World world = build_paper_world(test::uniform_world_options());
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  const ShortestPaths paths(graph);
  SimConfig config;
  config.partitions = 1;
  ClusterState cluster(world.topology, config);
  ConsistencyTracker tracker(1, static_cast<std::uint32_t>(
                                    world.topology.server_count()),
                             /*history=*/2);

  const PartitionId p{0};
  const ServerId primary{0};
  cluster.add_replica(p, primary, true);
  // Pick a copy several hops out (> history).
  ServerId far;
  for (const Datacenter& dc : world.topology.datacenters()) {
    if (paths.hop_count(world.topology.server(primary).datacenter, dc.id) >=
        3) {
      far = world.topology.servers_in(dc.id).front();
      break;
    }
  }
  ASSERT_TRUE(far.valid());
  cluster.add_replica(p, far);

  for (int e = 0; e < 10; ++e) {
    const std::vector<double> writes{2.0};
    tracker.advance(cluster, world.topology, paths, writes);
  }
  // With history 2, the copy lags (history-1) epochs' worth of writes
  // despite being 3+ hops away: clamped, monotone, never stuck at zero.
  EXPECT_GT(tracker.replica_version(p, far), 0.0);
  EXPECT_NEAR(tracker.lag(p, far), 2.0, 1e-9);
}

TEST(SamplerEdge, SingleWeightAlwaysWins) {
  const std::vector<double> weights{3.5};
  DiscreteSampler sampler(weights);
  Rng rng(72);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.sample(rng), 0u);
  }
  EXPECT_DOUBLE_EQ(sampler.probability(0), 1.0);
}

TEST(FlashCrowdEdge, NonQuarterStageCountsSplitEvenly) {
  const World world = build_paper_world();
  WorkloadParams params;
  params.partitions = 4;
  params.datacenters = 10;
  std::vector<FlashStage> stages(5);  // five stages over 100 epochs
  for (auto& stage : stages) stage.hot_share = 0.8;
  stages[0].hot_dcs = {world.by_letter('A')};
  FlashCrowdWorkload workload(params, stages, /*total_epochs=*/100);
  EXPECT_EQ(workload.stage_at(0), 0u);
  EXPECT_EQ(workload.stage_at(19), 0u);
  EXPECT_EQ(workload.stage_at(20), 1u);
  EXPECT_EQ(workload.stage_at(99), 4u);
  EXPECT_EQ(workload.stage_at(100), 4u);
}

TEST(TopologyEdge, MultiRoomLabelsCountRoomsAndRacks) {
  WorldOptions options;
  options.rooms_per_datacenter = 2;
  options.racks_per_room = 2;
  options.servers_per_rack = 2;
  const World world = build_paper_world(options);
  // Server index 4 of DC 0: room 2, rack 1, server 1.
  const auto& servers = world.topology.servers_in(world.dc[0]);
  ASSERT_EQ(servers.size(), 8u);
  EXPECT_EQ(world.topology.server(servers[4]).room,
            world.topology.datacenter(world.dc[0]).rooms[1]);
  // Same datacenter, different rooms: availability level 4.
  EXPECT_EQ(world.topology.availability_level(servers[0], servers[4]), 4u);
}

TEST(HistogramEdge, FullPercentileReturnsTopOfDistribution) {
  Histogram h;
  h.add(1.0, 5.0);
  h.add(1.0, 500.0);
  const double p100 = h.percentile(1.0);
  EXPECT_GE(p100, 490.0);  // within the top bucket
}

TEST(RouterEdge, RecoversWhenRelayDatacenterPartiallyDies) {
  // Kill all but one server of a transit datacenter: it must still relay
  // (and the surviving server becomes every partition's relay there).
  SimConfig config;
  config.partitions = 4;
  auto sim = test::make_fixed_sim(
      {QueryFlow{PartitionId{0}, DatacenterId{9}, 4.0}},
      std::make_unique<test::NullPolicy>(), config);
  const DatacenterId transit = sim->world().by_letter('I');
  const auto servers = sim->topology().servers_in(transit);
  std::vector<ServerId> victims(servers.begin(), servers.end() - 1);
  sim->fail_servers(victims);
  ASSERT_EQ(sim->cluster().live_by_dc()[transit.value()].size(), 1u);
  sim->step();  // routes through the survivor without issue
  sim->cluster().check_invariants();
}

}  // namespace
}  // namespace rfh
