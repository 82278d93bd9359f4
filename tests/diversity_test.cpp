// Geographic-diversity metric and datacenter-level failure injection.
#include <gtest/gtest.h>

#include <memory>

#include "core/rfh_policy.h"
#include "harness/runner.h"
#include "metrics/collector.h"
#include "metrics/diversity.h"
#include "test_util.h"

namespace rfh {
namespace {

class DiversityTest : public ::testing::Test {
 protected:
  DiversityTest() : world_(build_paper_world(test::uniform_world_options())) {
    config_.partitions = 2;
    cluster_ = std::make_unique<ClusterState>(world_.topology, config_);
  }

  World world_;
  SimConfig config_;
  std::unique_ptr<ClusterState> cluster_;
};

TEST_F(DiversityTest, SingleCopyHasNoDiversity) {
  cluster_->add_replica(PartitionId{0}, ServerId{0}, true);
  EXPECT_EQ(partition_diversity_level(*cluster_, world_.topology,
                                      PartitionId{0}),
            0u);
}

TEST_F(DiversityTest, SameRackPairIsLevelTwo) {
  const auto& servers = world_.topology.servers_in(world_.dc[0]);
  // Servers 0 and 1 share the first rack (5 per rack).
  cluster_->add_replica(PartitionId{0}, servers[0], true);
  cluster_->add_replica(PartitionId{0}, servers[1]);
  EXPECT_EQ(partition_diversity_level(*cluster_, world_.topology,
                                      PartitionId{0}),
            2u);
}

TEST_F(DiversityTest, CrossRackPairIsLevelThree) {
  const auto& servers = world_.topology.servers_in(world_.dc[0]);
  // One room, two racks of five: indices 0 and 5 are different racks.
  cluster_->add_replica(PartitionId{0}, servers[0], true);
  cluster_->add_replica(PartitionId{0}, servers[5]);
  EXPECT_EQ(partition_diversity_level(*cluster_, world_.topology,
                                      PartitionId{0}),
            3u);
}

TEST_F(DiversityTest, CrossDatacenterPairIsLevelFive) {
  cluster_->add_replica(PartitionId{0},
                        world_.topology.servers_in(world_.dc[0])[0], true);
  cluster_->add_replica(PartitionId{0},
                        world_.topology.servers_in(world_.dc[7])[0]);
  EXPECT_EQ(partition_diversity_level(*cluster_, world_.topology,
                                      PartitionId{0}),
            5u);
}

TEST_F(DiversityTest, BestPairWins) {
  // Two same-rack copies plus one remote copy: the remote pair dominates.
  const auto& local = world_.topology.servers_in(world_.dc[0]);
  cluster_->add_replica(PartitionId{0}, local[0], true);
  cluster_->add_replica(PartitionId{0}, local[1]);
  cluster_->add_replica(PartitionId{0},
                        world_.topology.servers_in(world_.dc[3])[0]);
  EXPECT_EQ(partition_diversity_level(*cluster_, world_.topology,
                                      PartitionId{0}),
            5u);
}

TEST_F(DiversityTest, MeanAndSurvivabilityAggregate) {
  // Partition 0: cross-DC (level 5); partition 1: single copy (level 0).
  const PartitionId p0{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config_);
  const DatacenterId home =
      world_.topology.server(probe->cluster().primary_of(p0)).datacenter;
  const DatacenterId away = home == world_.dc[0] ? world_.dc[1] : world_.dc[0];
  Actions e0;
  e0.replications.push_back(
      ReplicateAction{p0, world_.topology.servers_in(away)[0], {}});
  auto sim = test::make_fixed_sim(
      {}, std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{e0}),
      config_);
  const EpochMetrics m = MetricsCollector().collect(*sim, sim->step());
  ASSERT_EQ(sim->cluster().replica_count(p0), 2u);
  ASSERT_EQ(sim->cluster().replica_count(PartitionId{1}), 1u);
  EXPECT_DOUBLE_EQ(m.diversity_level, 2.5);
  EXPECT_DOUBLE_EQ(m.dc_survivable_fraction, 0.5);
}

TEST(DatacenterFailure, DiversePlacementSurvivesAWholeDatacenterLoss) {
  // Warm up RFH (which places copies across datacenters), then destroy
  // the datacenter holding the most copies: no partition may lose data.
  SimConfig config;
  config.partitions = 16;
  WorkloadParams params;
  params.partitions = 16;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  sim->run(39);
  const EpochMetrics warm = MetricsCollector().collect(*sim, sim->step());
  ASSERT_GT(warm.dc_survivable_fraction, 0.99);

  const auto victims = test::outage_now(*sim, sim->world().by_letter('A'));
  EXPECT_EQ(victims.size(), 10u);
  EXPECT_EQ(sim->data_losses(), 0u);
  sim->cluster().check_invariants();
  // Every partition still has a live primary.
  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    EXPECT_TRUE(sim->cluster().primary_of(PartitionId{p}).valid());
  }
  sim->run(20);  // and the system keeps serving
}

TEST(DatacenterFailure, ClusteredPlacementLosesData) {
  // A policy that hoards every copy inside the primary's own datacenter
  // (availability level <= 4) is wiped out by a datacenter disaster —
  // the scenario motivating the paper's geographic levels.
  SimConfig config;
  config.partitions = 8;
  auto clustered = test::make_lambda_policy([](const PolicyContext& ctx) {
    Actions actions;
    for (std::uint32_t pv = 0; pv < ctx.config.partitions; ++pv) {
      const PartitionId p{pv};
      const ServerId primary = ctx.cluster.primary_of(p);
      if (!primary.valid() || ctx.cluster.replica_count(p) >= 3) continue;
      const DatacenterId home = ctx.topology.server(primary).datacenter;
      for (const ServerId s : ctx.cluster.live_by_dc()[home.value()]) {
        if (ctx.cluster.can_accept(s, p)) {
          actions.replications.push_back(ReplicateAction{p, s, {}});
          break;
        }
      }
    }
    return actions;
  });
  auto sim = test::make_fixed_sim(
      {QueryFlow{PartitionId{0}, DatacenterId{1}, 5.0}}, std::move(clustered),
      config);
  sim->run(9);
  EXPECT_DOUBLE_EQ(
      MetricsCollector().collect(*sim, sim->step()).dc_survivable_fraction,
      0.0);

  // Find a datacenter that holds a primary and destroy it.
  const ServerId some_primary = sim->cluster().primary_of(PartitionId{0});
  test::outage_now(*sim, sim->topology().server(some_primary).datacenter);
  EXPECT_GT(sim->data_losses(), 0u);
}

TEST(DatacenterFailure, CollectorReportsDiversity) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 40;
  const PolicyRun run = run_policy(scenario, PolicyKind::kOwner);
  // Owner-oriented maximizes diversity: essentially everything ends
  // cross-datacenter once the floor is reached.
  EXPECT_GT(run.series.back().diversity_level, 4.5);
  EXPECT_GT(run.series.back().dc_survivable_fraction, 0.95);
}

}  // namespace
}  // namespace rfh
