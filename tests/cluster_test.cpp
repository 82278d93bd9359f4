#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "test_util.h"
#include "topology/world.h"

namespace rfh {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : world_(build_paper_world()) {
    config_.partitions = 8;
    config_.partition_size = kib(512);
    cluster_ = std::make_unique<ClusterState>(world_.topology, config_);
  }

  World world_;
  SimConfig config_;
  std::unique_ptr<ClusterState> cluster_;
};

TEST_F(ClusterTest, StartsEmptyAndFullyAlive) {
  EXPECT_EQ(cluster_->total_replicas(), 0u);
  EXPECT_EQ(cluster_->live_server_count(), 100u);
  for (const Server& s : world_.topology.servers()) {
    EXPECT_TRUE(cluster_->alive(s.id));
    EXPECT_EQ(cluster_->storage_used(s.id), 0u);
    EXPECT_EQ(cluster_->copies_on(s.id), 0u);
  }
  cluster_->check_invariants();
}

TEST_F(ClusterTest, AddRemoveReplicaBalancesAccounting) {
  const PartitionId p{0};
  cluster_->add_replica(p, ServerId{5}, /*primary=*/true);
  cluster_->add_replica(p, ServerId{17});
  EXPECT_EQ(cluster_->replica_count(p), 2u);
  EXPECT_EQ(cluster_->total_replicas(), 2u);
  EXPECT_EQ(cluster_->storage_used(ServerId{5}), config_.partition_size);
  EXPECT_EQ(cluster_->copies_on(ServerId{17}), 1u);
  EXPECT_TRUE(cluster_->has_replica(p, ServerId{17}));
  cluster_->check_invariants();

  cluster_->remove_replica(p, ServerId{17});
  EXPECT_EQ(cluster_->replica_count(p), 1u);
  EXPECT_EQ(cluster_->storage_used(ServerId{17}), 0u);
  EXPECT_FALSE(cluster_->has_replica(p, ServerId{17}));
  cluster_->check_invariants();
}

TEST_F(ClusterTest, PrimaryTracking) {
  const PartitionId p{1};
  EXPECT_FALSE(cluster_->primary_of(p).valid());
  cluster_->add_replica(p, ServerId{3}, /*primary=*/true);
  cluster_->add_replica(p, ServerId{4});
  EXPECT_EQ(cluster_->primary_of(p), ServerId{3});
  cluster_->set_primary(p, ServerId{4});
  EXPECT_EQ(cluster_->primary_of(p), ServerId{4});
  cluster_->check_invariants();
}

TEST_F(ClusterTest, CanAcceptRejectsDuplicatesAndDead) {
  const PartitionId p{0};
  cluster_->add_replica(p, ServerId{5}, true);
  EXPECT_FALSE(cluster_->can_accept(ServerId{5}, p));  // already hosting
  EXPECT_TRUE(cluster_->can_accept(ServerId{6}, p));
  cluster_->kill_servers(std::array{ServerId{6}}, nullptr);
  EXPECT_FALSE(cluster_->can_accept(ServerId{6}, p));  // dead
}

TEST_F(ClusterTest, CanAcceptEnforcesStorageLimit) {
  // Tiny disks: capacity for exactly 2 copies under the 70% limit.
  WorldOptions options =
      WorldOptions{};
  options.storage_capacity_lo = 3 * config_.partition_size;
  options.storage_capacity_hi = 3 * config_.partition_size;
  const World tiny = build_paper_world(options);
  ClusterState cluster(tiny.topology, config_);
  // 70% of 3 * 512K = 1.05M; one copy (512K) fits, two (1024K) fit,
  // three (1536K) exceed it.
  cluster.add_replica(PartitionId{0}, ServerId{0}, true);
  EXPECT_TRUE(cluster.can_accept(ServerId{0}, PartitionId{1}));
  cluster.add_replica(PartitionId{1}, ServerId{0}, true);
  EXPECT_FALSE(cluster.can_accept(ServerId{0}, PartitionId{2}));
}

TEST_F(ClusterTest, CanAcceptEnforcesVnodeCap) {
  WorldOptions options;
  options.max_vnodes = 2;
  const World tiny = build_paper_world(options);
  ClusterState cluster(tiny.topology, config_);
  cluster.add_replica(PartitionId{0}, ServerId{0}, true);
  cluster.add_replica(PartitionId{1}, ServerId{0}, true);
  EXPECT_FALSE(cluster.can_accept(ServerId{0}, PartitionId{2}));
}

TEST(ClusterRefusal, NamesTheFirstConstraintThatRefuses) {
  // One row per constraint. Rows where a later check would refuse too
  // pin the order: dead, hosted, node cap, EC zone, phi storage.
  // can_accept agrees with every row.
  constexpr Bytes kPartitionSize = kib(512);
  // Room for two copies under the 70% limit, not three.
  constexpr Bytes kTwoCopyDisk = 3 * kPartitionSize;
  struct Row {
    const char* name;
    RedundancyMode redundancy = RedundancyMode::kReplica;
    std::uint32_t max_vnodes = 0;  // 0 keeps the world default
    Bytes disk = 0;                // 0 keeps the world default
    /// Copies placed first: (partition, index among datacenter 0's
    /// servers). The target is index 0, asked for partition 0.
    std::vector<std::pair<std::uint32_t, std::size_t>> copies;
    bool kill_target = false;
    std::optional<DropReason> want;
  };
  const Row rows[] = {
      {"accepts", RedundancyMode::kReplica, 0, 0, {}, false, std::nullopt},
      {"dead", RedundancyMode::kReplica, 0, kTwoCopyDisk, {}, true,
       DropReason::kDeadTarget},
      {"hosted", RedundancyMode::kReplica, 0, 0, {{0, 0}}, false,
       DropReason::kInvalid},
      {"node cap before storage", RedundancyMode::kReplica, 2, kTwoCopyDisk,
       {{1, 0}, {2, 0}}, false, DropReason::kNodeCap},
      {"ec zone before storage", RedundancyMode::kErasure, 0, kib(64),
       {{0, 1}, {0, 2}}, false, DropReason::kZoneDiversity},
      {"ec zone below m", RedundancyMode::kErasure, 0, 0, {{0, 1}}, false,
       std::nullopt},
      {"storage", RedundancyMode::kReplica, 0, kTwoCopyDisk, {{1, 0}, {2, 0}},
       false, DropReason::kStorageCap},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    WorldOptions options;
    if (row.max_vnodes != 0) options.max_vnodes = row.max_vnodes;
    if (row.disk != 0) {
      options.storage_capacity_lo = row.disk;
      options.storage_capacity_hi = row.disk;
    }
    const World world = build_paper_world(options);
    SimConfig config;
    config.partitions = 8;
    config.partition_size = kPartitionSize;
    config.redundancy = row.redundancy;
    config.ec_k = 4;
    config.ec_m = 2;
    ClusterState cluster(world.topology, config);
    const std::span<const ServerId> dc0 =
        world.topology.servers_in(DatacenterId{0});
    for (const auto& [partition, index] : row.copies) {
      const PartitionId pid{partition};
      cluster.add_replica(pid, dc0[index], !cluster.primary_of(pid).valid());
    }
    const ServerId target = dc0[0];
    if (row.kill_target) cluster.kill_servers(std::array{target}, nullptr);
    EXPECT_EQ(cluster.refusal(target, PartitionId{0}), row.want);
    EXPECT_EQ(cluster.can_accept(target, PartitionId{0}), !row.want);
  }
}

TEST_F(ClusterTest, HostsInDcOrdersPrimaryLast) {
  const PartitionId p{0};
  const DatacenterId dc = world_.dc[0];
  const auto& servers = world_.topology.servers_in(dc);
  cluster_->add_replica(p, servers[3], /*primary=*/true);
  cluster_->add_replica(p, servers[1]);
  cluster_->add_replica(p, servers[2]);
  const auto hosts = cluster_->hosts_in_dc(p, dc);
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_EQ(hosts[0], servers[1]);  // non-primaries ascending
  EXPECT_EQ(hosts[1], servers[2]);
  EXPECT_EQ(hosts[2], servers[3]);  // primary last
}

TEST(PartitionTable, VersionMovesOnEveryPlacementChange) {
  PartitionTable table(/*partitions=*/2, /*initial_stride=*/2);
  const PartitionId p{0};
  const PartitionId other{1};
  std::uint32_t version = table.version(p);
  const auto moved = [&] {
    const bool changed = table.version(p) != version;
    version = table.version(p);
    return changed;
  };
  table.add(p, ServerId{3}, /*primary=*/true);
  EXPECT_TRUE(moved());
  table.add(p, ServerId{5}, /*primary=*/false);
  EXPECT_TRUE(moved());
  table.add(p, ServerId{7}, /*primary=*/false);  // grows the stride
  EXPECT_TRUE(moved());
  table.set_primary(p, ServerId{5});
  EXPECT_TRUE(moved());
  table.remove(p, ServerId{7});
  EXPECT_TRUE(moved());
  table.remove_if(p, [](const Replica&) { return false; });
  EXPECT_FALSE(moved());
  table.remove_if(p, [](const Replica& r) { return r.server == ServerId{3}; });
  EXPECT_TRUE(moved());
  EXPECT_EQ(table.count(p), 1u);

  // Another partition's changes leave p's version alone.
  const std::uint32_t before = table.version(other);
  table.add(other, ServerId{9}, /*primary=*/true);
  EXPECT_FALSE(moved());
  EXPECT_NE(table.version(other), before);
}

TEST_F(ClusterTest, KillServerDropsCopiesAndReportsThem) {
  const PartitionId p0{0};
  const PartitionId p1{1};
  cluster_->add_replica(p0, ServerId{10}, true);
  cluster_->add_replica(p1, ServerId{10});
  cluster_->add_replica(p1, ServerId{11}, true);

  const auto lost = test::kill_one(*cluster_, ServerId{10});
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].partition, p0);
  EXPECT_TRUE(lost[0].was_primary);
  EXPECT_EQ(lost[1].partition, p1);
  EXPECT_FALSE(lost[1].was_primary);

  EXPECT_FALSE(cluster_->alive(ServerId{10}));
  EXPECT_EQ(cluster_->live_server_count(), 99u);
  EXPECT_EQ(cluster_->replica_count(p0), 0u);
  EXPECT_EQ(cluster_->storage_used(ServerId{10}), 0u);
  EXPECT_FALSE(cluster_->ring().contains(ServerId{10}));
  cluster_->check_invariants();
}

TEST_F(ClusterTest, BatchedKillMatchesSequentialKills) {
  const PartitionId p0{0};
  const PartitionId p1{1};
  cluster_->add_replica(p0, ServerId{10}, true);
  cluster_->add_replica(p0, ServerId{20});
  cluster_->add_replica(p1, ServerId{20}, true);
  cluster_->add_replica(p1, ServerId{30});

  const std::vector<ServerId> wave{ServerId{10}, ServerId{20}, ServerId{30}};
  std::vector<ServerId> order;
  std::vector<ClusterState::LostCopy> losses;
  cluster_->kill_servers(
      wave, [&](ServerId s, std::span<const ClusterState::LostCopy> lost) {
        order.push_back(s);
        // Mid-batch, liveness and copies are already gone for this victim.
        EXPECT_FALSE(cluster_->alive(s));
        EXPECT_EQ(cluster_->copies_on(s), 0u);
        losses.insert(losses.end(), lost.begin(), lost.end());
      });

  // Victim order and the per-victim ascending-partition loss report match
  // what sequential one-server kills produce.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], ServerId{10});
  EXPECT_EQ(order[1], ServerId{20});
  EXPECT_EQ(order[2], ServerId{30});
  ASSERT_EQ(losses.size(), 4u);
  EXPECT_EQ(losses[0].partition, p0);
  EXPECT_TRUE(losses[0].was_primary);
  EXPECT_EQ(losses[1].partition, p0);
  EXPECT_FALSE(losses[1].was_primary);
  EXPECT_EQ(losses[2].partition, p1);
  EXPECT_TRUE(losses[2].was_primary);
  EXPECT_EQ(losses[3].partition, p1);
  EXPECT_FALSE(losses[3].was_primary);

  EXPECT_EQ(cluster_->live_server_count(), 97u);
  for (const ServerId s : wave) {
    EXPECT_FALSE(cluster_->ring().contains(s));
  }
  cluster_->check_invariants();
}

TEST(ClusterBatchKill, MatchesALoopOfSingleKills) {
  // kill_servers takes the batch down in one pass over the partitions; it
  // must leave exactly what a loop of one-server kills leaves: the same
  // per-victim loss lists, the same surviving slot order in every
  // partition, the same accounting and the same ring.
  const World world = build_paper_world();
  SimConfig config;
  config.partitions = 64;
  config.partition_size = kib(64);
  ClusterState batched(world.topology, config);
  ClusterState looped(world.topology, config);
  const auto server_count =
      static_cast<std::uint32_t>(world.topology.server_count());

  Rng rng(23);
  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    const PartitionId pid{p};
    const auto copies = 1 + rng.uniform(6);
    for (std::uint64_t c = 0; c < copies; ++c) {
      const ServerId s{static_cast<std::uint32_t>(rng.uniform(server_count))};
      if (batched.has_replica(pid, s)) continue;
      // The primary lands in a random slot, not always the first.
      const bool primary = !batched.primary_of(pid).valid() &&
                           (c + 1 == copies || rng.uniform(3) == 0);
      batched.add_replica(pid, s, primary);
      looped.add_replica(pid, s, primary);
    }
    if (!batched.primary_of(pid).valid()) {
      const ServerId first = batched.replicas_of(pid).front().server;
      batched.set_primary(pid, first);
      looped.set_primary(pid, first);
    }
  }
  // Victims in a scrambled order, some hosting many copies.
  const std::vector<std::size_t> picks =
      rng.sample_without_replacement(server_count, 30);
  std::vector<ServerId> victims;
  for (const std::size_t i : picks) {
    victims.push_back(ServerId{static_cast<std::uint32_t>(i)});
  }

  using Losses = std::vector<std::pair<std::uint32_t, bool>>;
  const auto flatten = [](std::span<const ClusterState::LostCopy> lost) {
    Losses out;
    for (const ClusterState::LostCopy& c : lost) {
      out.emplace_back(c.partition.value(), c.was_primary);
    }
    return out;
  };
  std::vector<ServerId> order;
  std::vector<Losses> batch_lost;
  batched.kill_servers(
      victims, [&](ServerId s, std::span<const ClusterState::LostCopy> lost) {
        order.push_back(s);
        batch_lost.push_back(flatten(lost));
      });
  std::vector<Losses> loop_lost;
  for (const ServerId s : victims) {
    loop_lost.push_back(flatten(test::kill_one(looped, s)));
  }
  EXPECT_EQ(order, victims);
  EXPECT_EQ(batch_lost, loop_lost);
  std::size_t total_lost = 0;
  for (const Losses& l : loop_lost) total_lost += l.size();
  EXPECT_GT(total_lost, 30u);

  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    const auto a = batched.replicas_of(PartitionId{p});
    const auto b = looped.replicas_of(PartitionId{p});
    ASSERT_EQ(a.size(), b.size()) << "partition " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].server, b[i].server) << "partition " << p;
      EXPECT_EQ(a[i].primary, b[i].primary) << "partition " << p;
    }
  }
  EXPECT_EQ(batched.total_replicas(), looped.total_replicas());
  EXPECT_EQ(batched.live_server_count(), looped.live_server_count());
  for (std::uint32_t s = 0; s < server_count; ++s) {
    const ServerId sid{s};
    EXPECT_EQ(batched.alive(sid), looped.alive(sid));
    EXPECT_EQ(batched.copies_on(sid), looped.copies_on(sid));
    EXPECT_EQ(batched.storage_used(sid), looped.storage_used(sid));
    EXPECT_EQ(batched.ring().contains(sid), looped.ring().contains(sid));
  }
  for (std::size_t dc = 0; dc < batched.live_by_dc().size(); ++dc) {
    EXPECT_EQ(batched.live_by_dc()[dc], looped.live_by_dc()[dc]);
  }
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = rng.next();
    EXPECT_EQ(batched.ring().primary(key), looped.ring().primary(key));
    EXPECT_EQ(batched.ring().preference_list(key, 8),
              looped.ring().preference_list(key, 8));
  }
}

TEST_F(ClusterTest, BatchedReviveMatchesSequentialRevives) {
  const std::vector<ServerId> wave{ServerId{10}, ServerId{20}, ServerId{30}};
  cluster_->kill_servers(wave, nullptr);
  EXPECT_EQ(cluster_->live_server_count(), 97u);
  cluster_->revive_servers(wave);
  EXPECT_EQ(cluster_->live_server_count(), 100u);
  for (const ServerId s : wave) {
    EXPECT_TRUE(cluster_->alive(s));
    EXPECT_TRUE(cluster_->ring().contains(s));
  }
  cluster_->check_invariants();
}

TEST_F(ClusterTest, LiveByDcExcludesDeadServers) {
  const DatacenterId dc = world_.topology.server(ServerId{10}).datacenter;
  const std::size_t before = cluster_->live_by_dc()[dc.value()].size();
  cluster_->kill_servers(std::array{ServerId{10}}, nullptr);
  EXPECT_EQ(cluster_->live_by_dc()[dc.value()].size(), before - 1);
}

TEST_F(ClusterTest, ReviveRestoresMembership) {
  cluster_->kill_servers(std::array{ServerId{10}}, nullptr);
  cluster_->revive_servers(std::array{ServerId{10}});
  EXPECT_TRUE(cluster_->alive(ServerId{10}));
  EXPECT_EQ(cluster_->live_server_count(), 100u);
  EXPECT_TRUE(cluster_->ring().contains(ServerId{10}));
  EXPECT_TRUE(cluster_->can_accept(ServerId{10}, PartitionId{0}));
  cluster_->check_invariants();
}

TEST_F(ClusterTest, StorageFraction) {
  WorldOptions options;
  options.storage_capacity_lo = 10 * config_.partition_size;
  options.storage_capacity_hi = 10 * config_.partition_size;
  const World tiny = build_paper_world(options);
  ClusterState cluster(tiny.topology, config_);
  EXPECT_DOUBLE_EQ(cluster.storage_fraction(ServerId{0}), 0.0);
  cluster.add_replica(PartitionId{0}, ServerId{0}, true);
  EXPECT_NEAR(cluster.storage_fraction(ServerId{0}), 0.1, 1e-12);
}

TEST_F(ClusterTest, DeathOnMisuse) {
  const PartitionId p{0};
  cluster_->add_replica(p, ServerId{5}, true);
  EXPECT_DEATH(cluster_->add_replica(p, ServerId{5}), "");  // duplicate
  EXPECT_DEATH(cluster_->add_replica(p, ServerId{6}, true),
               "");  // second primary
  EXPECT_DEATH(cluster_->remove_replica(p, ServerId{7}), "");  // absent
  EXPECT_DEATH(cluster_->set_primary(p, ServerId{7}), "");
  cluster_->kill_servers(std::array{ServerId{9}}, nullptr);
  EXPECT_DEATH(cluster_->add_replica(p, ServerId{9}), "");  // dead target
  EXPECT_DEATH(cluster_->kill_servers(std::array{ServerId{9}}, nullptr),
               "");  // already dead
  EXPECT_DEATH(cluster_->revive_servers(std::array{ServerId{5}}),
               "");  // already alive
}

}  // namespace
}  // namespace rfh
