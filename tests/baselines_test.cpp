// Behavioural contracts of the three comparator policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/owner_policy.h"
#include "baselines/random_policy.h"
#include "baselines/request_policy.h"
#include "common/availability.h"
#include "ring/ring.h"
#include "test_util.h"

namespace rfh {
namespace {

SimConfig one_partition() {
  SimConfig config;
  config.partitions = 1;
  return config;
}

TEST(RandomPolicy, GrowsToFloorAtRingSuccessors) {
  const SimConfig config = one_partition();
  const PartitionId p{0};
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{3}, 1.0}},
                                  std::make_unique<RandomPolicy>(), config);
  for (int e = 0; e < 5; ++e) sim->step();
  const std::uint32_t r = sim->cluster().replica_count(p);
  EXPECT_GE(r, min_replicas(config.min_availability, config.failure_rate));

  // Every copy is on the ring preference list of the partition's key.
  const auto preference = sim->cluster().ring().preference_list(
      HashRing::partition_key(p), r + 8);
  for (const Replica& replica : sim->cluster().replicas_of(p)) {
    EXPECT_NE(std::find(preference.begin(), preference.end(), replica.server),
              preference.end())
        << "copy off the successor chain";
  }
}

TEST(RandomPolicy, NeverMigratesOrSuicides) {
  SimConfig config;
  config.partitions = 4;
  WorkloadParams params;
  params.partitions = 4;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<RandomPolicy>());
  for (int e = 0; e < 60; ++e) {
    const EpochReport report = sim->step();
    EXPECT_EQ(report.migrations, 0u);
    EXPECT_EQ(report.suicides, 0u);
  }
  EXPECT_EQ(sim->cumulative_migrations(), 0u);
}

TEST(RandomPolicy, GrowsUnderSustainedOverload) {
  const SimConfig config = one_partition();
  const PartitionId p{0};
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{6}, 30.0}},
                                  std::make_unique<RandomPolicy>(), config);
  for (int e = 0; e < 40; ++e) sim->step();
  EXPECT_GT(sim->cluster().replica_count(p), 2u);
  EXPECT_LE(sim->cluster().replica_count(p),
            config.max_replicas_per_partition);
}

TEST(OwnerPolicy, FirstCopyGoesToNearestDistinctDatacenter) {
  const SimConfig config = one_partition();
  const PartitionId p{0};
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{2}, 1.0}},
                                  std::make_unique<OwnerOrientedPolicy>(),
                                  config);
  for (int e = 0; e < 4; ++e) sim->step();
  ASSERT_GE(sim->cluster().replica_count(p), 2u);

  const ServerId holder = sim->cluster().primary_of(p);
  const DatacenterId home = sim->topology().server(holder).datacenter;
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
  EXPECT_FALSE(sim->cluster().hosts_in_dc(p, nearest_dc).empty());
}

TEST(OwnerPolicy, CopiesMaximizeGeographicDiversity) {
  // While fresh datacenters remain, no datacenter hosts two copies.
  const SimConfig config = one_partition();
  const PartitionId p{0};
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{8}, 12.0}},
                                  std::make_unique<OwnerOrientedPolicy>(),
                                  config);
  for (int e = 0; e < 25; ++e) sim->step();
  const std::uint32_t r = sim->cluster().replica_count(p);
  if (r <= sim->topology().datacenter_count()) {
    std::set<std::uint32_t> dcs;
    for (const Replica& replica : sim->cluster().replicas_of(p)) {
      dcs.insert(sim->topology().server(replica.server).datacenter.value());
    }
    EXPECT_EQ(dcs.size(), r) << "duplicate datacenter before all are used";
  }
}

TEST(OwnerPolicy, NoMigrationUnderStableMembership) {
  SimConfig config;
  config.partitions = 8;
  WorkloadParams params;
  params.partitions = 8;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<OwnerOrientedPolicy>());
  for (int e = 0; e < 80; ++e) {
    EXPECT_EQ(sim->step().migrations, 0u);
  }
}

TEST(OwnerPolicy, NeverSuicides) {
  SimConfig config;
  config.partitions = 4;
  WorkloadParams params;
  params.partitions = 4;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<UniformWorkload>(params),
      std::make_unique<OwnerOrientedPolicy>());
  for (int e = 0; e < 60; ++e) {
    EXPECT_EQ(sim->step().suicides, 0u);
  }
}

TEST(RequestPolicy, CopiesLiveAtTopRequesterDatacenters) {
  const SimConfig config = one_partition();
  const PartitionId p{0};
  // All demand from two datacenters: copies must appear exactly there.
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, DatacenterId{8}, 10.0}, QueryFlow{p, DatacenterId{6}, 8.0}},
      std::make_unique<RequestOrientedPolicy>(), config);
  for (int e = 0; e < 25; ++e) sim->step();

  const ServerId holder = sim->cluster().primary_of(p);
  const DatacenterId home = sim->topology().server(holder).datacenter;
  for (const Replica& replica : sim->cluster().replicas_of(p)) {
    if (replica.primary) continue;
    const DatacenterId dc = sim->topology().server(replica.server).datacenter;
    EXPECT_TRUE(dc == DatacenterId{8} || dc == DatacenterId{6} || dc == home)
        << "copy at a datacenter nobody queries from (dc "
        << dc.value() << ")";
  }
}

TEST(RequestPolicy, StructurallyCappedAtTopSetPlusPrimary) {
  const SimConfig config = one_partition();
  const PartitionId p{0};
  // Overwhelming demand from a single datacenter: the scheme still only
  // keeps copies in its top-3 requester datacenters (at most one each).
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{8}, 200.0}},
                                  std::make_unique<RequestOrientedPolicy>(),
                                  config);
  for (int e = 0; e < 40; ++e) sim->step();
  EXPECT_LE(sim->cluster().replica_count(p), 4u);  // top-3 + primary
}

TEST(RequestPolicy, MigratesWhenTheCrowdMoves) {
  const SimConfig config = one_partition();
  const PartitionId p{0};
  std::vector<QueryBatch> schedule;
  for (int e = 0; e < 50; ++e) {
    schedule.push_back({QueryFlow{p, DatacenterId{8}, 15.0},
                        QueryFlow{p, DatacenterId{9}, 12.0}});
  }
  // Three fresh hot datacenters: the new top-3 fully evicts the old
  // requester set, so the stranded copies must be migrated, not merely
  // supplemented.
  for (int e = 0; e < 80; ++e) {
    schedule.push_back({QueryFlow{p, DatacenterId{1}, 15.0},
                        QueryFlow{p, DatacenterId{2}, 12.0},
                        QueryFlow{p, DatacenterId{3}, 10.0}});
  }
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<test::ScheduledWorkload>(schedule),
      std::make_unique<RequestOrientedPolicy>());
  std::uint32_t migrations = 0;
  for (int e = 0; e < 130; ++e) migrations += sim->step().migrations;
  EXPECT_GT(migrations, 0u);
  // After the shift, a copy serves the new crowd.
  const bool near_new_crowd =
      !sim->cluster().hosts_in_dc(p, DatacenterId{1}).empty() ||
      !sim->cluster().hosts_in_dc(p, DatacenterId{2}).empty();
  EXPECT_TRUE(near_new_crowd);
}

TEST(RequestPolicy, MigrationNeedsThreeConsecutiveTopSetEpochs) {
  const SimConfig config = one_partition();
  const PartitionId p{0};
  // Capacity far above the demand: no holder overloads, so every move is
  // one the top-set membership triggers.
  const WorldOptions world = test::uniform_world_options(1000.0);
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, world);
  const DatacenterId home =
      probe->topology().server(probe->cluster().primary_of(p)).datacenter;
  std::vector<DatacenterId> dc;  // A..F: six datacenters off the primary's
  for (std::uint32_t d = 0; dc.size() < 6; ++d) {
    if (DatacenterId{d} != home) dc.push_back(DatacenterId{d});
  }
  const auto from = [&](std::vector<std::size_t> which) {
    QueryBatch batch;
    for (const std::size_t i : which) {
      batch.push_back(QueryFlow{p, dc[i], 10.0});
    }
    return batch;
  };
  // Epochs 0-9: only A queries, so the floor copy lands at A. 10-11: B, C
  // and D hold the top set for two epochs, leaving A's copy stale. 12: A,
  // E and F push them out. From 13: B, C and D again.
  std::vector<QueryBatch> schedule(10, from({0}));
  schedule.push_back(from({1, 2, 3}));
  schedule.push_back(from({1, 2, 3}));
  schedule.push_back(from({0, 4, 5}));
  schedule.push_back(from({1, 2, 3}));
  auto sim = std::make_unique<Simulation>(
      build_paper_world(world), config,
      std::make_unique<test::ScheduledWorkload>(schedule),
      std::make_unique<RequestOrientedPolicy>());
  for (int e = 0; e < 18; ++e) {
    const EpochReport report = sim->step();
    if (e == 0) {
      ASSERT_EQ(sim->cluster().copies_in_dc(p, dc[0]), 1u);
    }
    // Not at 10-11 (two epochs), not at 13 (the streak restarted when
    // the set dropped out at 12): first at 15, the third epoch in a row.
    EXPECT_EQ(report.migrations, e == 15 ? 1u : 0u) << "epoch " << e;
  }
  EXPECT_EQ(sim->cluster().copies_in_dc(p, dc[0]), 0u);
}

TEST(RequestPolicy, MigrationBudgetBoundsPerEpochMoves) {
  SimConfig config;
  config.partitions = 16;
  std::vector<QueryBatch> schedule;
  QueryBatch phase1;
  QueryBatch phase2;
  for (std::uint32_t p = 0; p < 16; ++p) {
    phase1.push_back(QueryFlow{PartitionId{p}, DatacenterId{8}, 10.0});
    phase2.push_back(QueryFlow{PartitionId{p}, DatacenterId{1}, 10.0});
  }
  for (int e = 0; e < 40; ++e) schedule.push_back(phase1);
  for (int e = 0; e < 60; ++e) schedule.push_back(phase2);
  auto sim = std::make_unique<Simulation>(
      build_paper_world(test::uniform_world_options()), config,
      std::make_unique<test::ScheduledWorkload>(schedule),
      std::make_unique<RequestOrientedPolicy>(
          /*top_requesters=*/3, /*max_migrations_per_epoch=*/2));
  for (int e = 0; e < 100; ++e) {
    EXPECT_LE(sim->step().migrations, 2u);
  }
}

TEST(PolicyNames, AreStable) {
  EXPECT_EQ(RandomPolicy().name(), "Random");
  EXPECT_EQ(OwnerOrientedPolicy().name(), "Owner");
  EXPECT_EQ(RequestOrientedPolicy().name(), "Request");
}

TEST(Baselines, ErasureFloorKeepsStripesReadable) {
  // Under ec(4,2) a read needs k = 4 live fragments. A baseline that
  // stops at the replica-mode floor (2 copies) leaves every stripe below
  // k and every query unserved; each must grow to the EC floor instead.
  SimConfig config;
  config.partitions = 8;
  std::string error;
  ASSERT_TRUE(parse_redundancy("ec(4,2)", config, error)) << error;
  WorkloadParams params;
  params.partitions = config.partitions;
  params.datacenters = 10;
  std::vector<std::unique_ptr<ReplicationPolicy>> policies;
  policies.push_back(std::make_unique<RandomPolicy>());
  policies.push_back(std::make_unique<OwnerOrientedPolicy>());
  policies.push_back(std::make_unique<RequestOrientedPolicy>());
  for (std::unique_ptr<ReplicationPolicy>& policy : policies) {
    const std::string name(policy->name());
    auto sim = std::make_unique<Simulation>(
        build_paper_world(test::uniform_world_options()), config,
        std::make_unique<UniformWorkload>(params), std::move(policy));
    double queries = 0.0;
    double unserved = 0.0;
    for (int e = 0; e < 60; ++e) {
      const EpochReport report = sim->step();
      if (e < 30) continue;
      queries += report.total_queries;
      unserved += report.unserved_queries;
    }
    EXPECT_LT(unserved, queries) << name;
    if (name == "Request") continue;  // capped at its top requester set
    for (std::uint32_t pv = 0; pv < config.partitions; ++pv) {
      EXPECT_GE(sim->cluster().replica_count(PartitionId{pv}),
                config.availability_floor())
          << name << " partition " << pv;
    }
  }
}

}  // namespace
}  // namespace rfh
