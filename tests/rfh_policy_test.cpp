// Branch coverage for the RFH decision tree (paper Fig. 2) under
// controlled, fully deterministic workloads.
#include "core/rfh_policy.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/availability.h"
#include "test_util.h"

namespace rfh {
namespace {

SimConfig small_config(std::uint32_t partitions = 2) {
  SimConfig config;
  config.partitions = partitions;
  return config;
}

std::uint32_t rmin(const SimConfig& config) {
  return min_replicas(config.min_availability, config.failure_rate);
}

TEST(RfhDecisionTree, RestoresAvailabilityFloorWithoutAnyTraffic) {
  // Fig. 2 branch 1: below the minimum availability, replicate even if
  // nothing is overloaded — here even with zero queries.
  const SimConfig config = small_config();
  auto sim = test::make_fixed_sim({}, std::make_unique<RfhPolicy>(), config);
  for (int e = 0; e < 5; ++e) sim->step();
  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    EXPECT_GE(sim->cluster().replica_count(PartitionId{p}), rmin(config));
  }
}

TEST(RfhDecisionTree, FloorCopiesPreferForwardingNodesWhenTrafficExists) {
  const SimConfig config = small_config(1);
  const PartitionId p{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config);
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId holder_dc = probe->topology().server(holder).datacenter;
  // A remote requester at least 2 hops out.
  DatacenterId requester;
  for (const Datacenter& dc : probe->topology().datacenters()) {
    if (probe->paths().hop_count(dc.id, holder_dc) >= 2) {
      requester = dc.id;
      break;
    }
  }
  ASSERT_TRUE(requester.valid());
  const auto route_dcs = probe->paths().path(requester, holder_dc);

  auto sim = test::make_fixed_sim({QueryFlow{p, requester, 1.0}},
                                  std::make_unique<RfhPolicy>(), config);
  for (int e = 0; e < 4; ++e) sim->step();
  ASSERT_GE(sim->cluster().replica_count(p), 2u);
  // The floor copy sits on the query route (a forwarding node), not on a
  // random datacenter.
  bool on_route = false;
  for (const Replica& r : sim->cluster().replicas_of(p)) {
    if (r.primary) continue;
    const DatacenterId dc = sim->topology().server(r.server).datacenter;
    for (const DatacenterId road : route_dcs) {
      if (dc == road) on_route = true;
    }
  }
  EXPECT_TRUE(on_route);
}

TEST(RfhDecisionTree, OverloadGrowsReplicasAtTrafficHubs) {
  const SimConfig config = small_config(1);
  const PartitionId p{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config);
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId holder_dc = probe->topology().server(holder).datacenter;
  DatacenterId requester;
  for (const Datacenter& dc : probe->topology().datacenters()) {
    if (probe->paths().hop_count(dc.id, holder_dc) >= 2) {
      requester = dc.id;
    }
  }
  ASSERT_TRUE(requester.valid());
  const auto route_dcs = probe->paths().path(requester, holder_dc);

  // Demand far beyond one replica's capacity (uniform capacity 2).
  auto sim = test::make_fixed_sim({QueryFlow{p, requester, 20.0}},
                                  std::make_unique<RfhPolicy>(), config);
  for (int e = 0; e < 30; ++e) sim->step();

  EXPECT_GT(sim->cluster().replica_count(p), rmin(config));
  // Every non-primary copy lives on the single query route.
  std::set<std::uint32_t> route_set;
  for (const DatacenterId dc : route_dcs) route_set.insert(dc.value());
  for (const Replica& r : sim->cluster().replicas_of(p)) {
    if (r.primary) continue;
    EXPECT_TRUE(route_set.contains(
        sim->topology().server(r.server).datacenter.value()))
        << "copy off the only query route";
  }
  // And the demand ends up served.
  EXPECT_NEAR(sim->traffic().unserved(p), 0.0, 1e-9);
}

TEST(RfhDecisionTree, OverloadRequiresConsecutiveEpochs) {
  // With overload_streak_epochs = 3, a holder overloaded for only the
  // first epoch (then quiet) must not trigger growth beyond the floor.
  const SimConfig config = small_config(1);
  const PartitionId p{0};
  RfhPolicy::Options options;
  options.overload_streak_epochs = 3;

  // One huge epoch, then silence.
  std::vector<QueryBatch> schedule;
  schedule.push_back({QueryFlow{p, DatacenterId{1}, 50.0}});
  schedule.push_back({});
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<test::ScheduledWorkload>(schedule),
      std::make_unique<RfhPolicy>(options));
  for (int e = 0; e < 6; ++e) sim->step();
  EXPECT_LE(sim->cluster().replica_count(p), rmin(config));
}

TEST(RfhDecisionTree, SuicideReclaimsColdReplicas) {
  // Build up under heavy load, then cut the workload: copies above the
  // floor must remove themselves (Eq. 15), and never below the floor.
  const SimConfig config = small_config(1);
  const PartitionId p{0};
  std::vector<QueryBatch> schedule;
  for (int e = 0; e < 40; ++e) {
    schedule.push_back({QueryFlow{p, DatacenterId{7}, 20.0}});
  }
  // Low but nonzero demand afterwards keeps q_bar alive while leaving all
  // copies cold.
  schedule.push_back({QueryFlow{p, DatacenterId{7}, 0.5}});

  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<test::ScheduledWorkload>(schedule),
      std::make_unique<RfhPolicy>());
  for (int e = 0; e < 40; ++e) sim->step();
  const std::uint32_t peak = sim->cluster().replica_count(p);
  ASSERT_GT(peak, rmin(config));
  std::uint32_t suicides = 0;
  for (int e = 0; e < 60; ++e) {
    suicides += sim->step().suicides;
  }
  EXPECT_GT(suicides, 0u);
  EXPECT_LT(sim->cluster().replica_count(p), peak);
  EXPECT_GE(sim->cluster().replica_count(p), rmin(config));
}

TEST(RfhDecisionTree, SuicideDisabledKeepsEveryCopy) {
  const SimConfig config = small_config(1);
  const PartitionId p{0};
  RfhPolicy::Options options;
  options.enable_suicide = false;
  std::vector<QueryBatch> schedule;
  for (int e = 0; e < 40; ++e) {
    schedule.push_back({QueryFlow{p, DatacenterId{7}, 20.0}});
  }
  schedule.push_back({QueryFlow{p, DatacenterId{7}, 0.5}});
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<test::ScheduledWorkload>(schedule),
      std::make_unique<RfhPolicy>(options));
  std::uint32_t suicides = 0;
  for (int e = 0; e < 100; ++e) suicides += sim->step().suicides;
  EXPECT_EQ(suicides, 0u);
}

TEST(RfhDecisionTree, MigrationFollowsTheCrowd) {
  // Phase 1: heavy demand from one side builds copies there. Phase 2: the
  // demand moves to the opposite side; with migration enabled some of the
  // now-cold copies must be *moved* (not just re-replicated).
  const SimConfig config = small_config(1);
  const PartitionId p{0};
  std::vector<QueryBatch> schedule;
  for (int e = 0; e < 60; ++e) {
    schedule.push_back({QueryFlow{p, DatacenterId{9}, 18.0}});
  }
  for (int e = 0; e < 80; ++e) {
    schedule.push_back({QueryFlow{p, DatacenterId{5}, 18.0}});
  }
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<test::ScheduledWorkload>(schedule),
      std::make_unique<RfhPolicy>());
  std::uint32_t migrations = 0;
  for (int e = 0; e < 140; ++e) migrations += sim->step().migrations;
  EXPECT_GT(migrations, 0u);
}

TEST(RfhDecisionTree, MigrationDisabledNeverMigrates) {
  const SimConfig config = small_config(1);
  const PartitionId p{0};
  RfhPolicy::Options options;
  options.enable_migration = false;
  std::vector<QueryBatch> schedule;
  for (int e = 0; e < 60; ++e) {
    schedule.push_back({QueryFlow{p, DatacenterId{9}, 18.0}});
  }
  for (int e = 0; e < 80; ++e) {
    schedule.push_back({QueryFlow{p, DatacenterId{5}, 18.0}});
  }
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<test::ScheduledWorkload>(schedule),
      std::make_unique<RfhPolicy>(options));
  std::uint32_t migrations = 0;
  for (int e = 0; e < 140; ++e) migrations += sim->step().migrations;
  EXPECT_EQ(migrations, 0u);
}

TEST(RfhDecisionTree, ReplicaCountNeverExceedsCap) {
  SimConfig config = small_config(1);
  config.max_replicas_per_partition = 4;
  const PartitionId p{0};
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{8}, 500.0}},
                                  std::make_unique<RfhPolicy>(), config);
  for (int e = 0; e < 50; ++e) {
    sim->step();
    EXPECT_LE(sim->cluster().replica_count(p), 4u);
  }
}

TEST(RfhDecisionTree, NearOwnerPlacementStaysNearOwner) {
  const SimConfig config = small_config(1);
  const PartitionId p{0};
  RfhPolicy::Options options;
  options.placement = RfhPolicy::Options::Placement::kNearOwner;
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{8}, 20.0}},
                                  std::make_unique<RfhPolicy>(options),
                                  config);
  for (int e = 0; e < 20; ++e) sim->step();
  ASSERT_GT(sim->cluster().replica_count(p), 1u);
  const ServerId holder = sim->cluster().primary_of(p);
  const DatacenterId home = sim->topology().server(holder).datacenter;
  // The nearest distinct datacenter hosts the first non-primary copy.
  double nearest = 1e18;
  DatacenterId nearest_dc;
  for (const Datacenter& dc : sim->topology().datacenters()) {
    if (dc.id == home) continue;
    const double d = sim->topology().distance_km(home, dc.id);
    if (d < nearest) {
      nearest = d;
      nearest_dc = dc.id;
    }
  }
  bool found_near = false;
  for (const Replica& r : sim->cluster().replicas_of(p)) {
    if (!r.primary &&
        sim->topology().server(r.server).datacenter == nearest_dc) {
      found_near = true;
    }
  }
  EXPECT_TRUE(found_near);
}

TEST(RfhPolicy, NameAndOptionsAccessors) {
  RfhPolicy::Options options;
  options.overload_streak_epochs = 5;
  RfhPolicy policy(options);
  EXPECT_EQ(policy.name(), "RFH");
  EXPECT_EQ(policy.options().overload_streak_epochs, 5u);
}

}  // namespace
}  // namespace rfh
