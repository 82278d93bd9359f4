#include "routing/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "net/graph.h"
#include "test_util.h"
#include "topology/world.h"

namespace rfh {
namespace {

using test::walk_route;
using test::WalkedRoute;

constexpr std::uint32_t kFixturePartitions = 64;

class RouterTest : public ::testing::Test {
 protected:
  RouterTest()
      : world_(build_paper_world()),
        graph_(world_.topology.datacenter_count(), world_.links),
        paths_(graph_),
        router_(world_.topology, paths_, kFixturePartitions) {
    live_by_dc_.resize(world_.topology.datacenter_count());
    for (const Server& s : world_.topology.servers()) {
      live_by_dc_[s.datacenter.value()].push_back(s.id);
    }
  }

  ServerId first_server_in(char letter) const {
    return world_.topology.servers_in(world_.by_letter(letter)).front();
  }

  World world_;
  DcGraph graph_;
  ShortestPaths paths_;
  Router router_;
  std::vector<std::vector<ServerId>> live_by_dc_;
};

TEST_F(RouterTest, StagesFollowTheDatacenterPath) {
  const ServerId holder = first_server_in('A');
  const WalkedRoute route = walk_route(
      router_, PartitionId{0}, world_.by_letter('J'), holder, live_by_dc_);
  const auto dc_path =
      paths_.path(world_.by_letter('J'), world_.by_letter('A'));
  ASSERT_EQ(route.stages.size(), dc_path.size());
  for (std::size_t i = 0; i < dc_path.size(); ++i) {
    EXPECT_EQ(route.stages[i].dc, dc_path[i]);
  }
}

TEST_F(RouterTest, HopsAreMonotoneAndTotalIsOnePastLastStage) {
  const ServerId holder = first_server_in('A');
  const WalkedRoute route = walk_route(
      router_, PartitionId{3}, world_.by_letter('H'), holder, live_by_dc_);
  ASSERT_FALSE(route.stages.empty());
  EXPECT_EQ(route.stages.front().hops_at_entry, 1u);
  for (std::size_t i = 1; i < route.stages.size(); ++i) {
    EXPECT_EQ(route.stages[i].hops_at_entry,
              route.stages[i - 1].hops_at_entry + 1);
  }
  EXPECT_EQ(route.total_hops, route.stages.back().hops_at_entry + 1);
}

TEST_F(RouterTest, RelayIsALiveServerOfItsDatacenter) {
  const ServerId holder = first_server_in('A');
  for (const DatacenterId requester : world_.dc) {
    const WalkedRoute route =
        walk_route(router_, PartitionId{7}, requester, holder, live_by_dc_);
    for (const RouteStage& stage : route.stages) {
      const auto& live = live_by_dc_[stage.dc.value()];
      EXPECT_NE(std::find(live.begin(), live.end(), stage.relay), live.end());
      EXPECT_EQ(world_.topology.server(stage.relay).datacenter, stage.dc);
    }
  }
}

TEST_F(RouterTest, HolderDatacenterRelayIsTheHolderItself) {
  const ServerId holder = first_server_in('A');
  const WalkedRoute route = walk_route(
      router_, PartitionId{1}, world_.by_letter('C'), holder, live_by_dc_);
  EXPECT_EQ(route.stages.back().dc, world_.by_letter('A'));
  EXPECT_EQ(route.stages.back().relay, holder);
}

TEST_F(RouterTest, LocalQueryHasSingleStage) {
  const ServerId holder = first_server_in('A');
  const WalkedRoute route = walk_route(
      router_, PartitionId{2}, world_.by_letter('A'), holder, live_by_dc_);
  ASSERT_EQ(route.stages.size(), 1u);
  EXPECT_EQ(route.stages[0].relay, holder);
  EXPECT_EQ(route.total_hops, 2u);  // entry + descent
}

TEST_F(RouterTest, DeadDatacenterIsSkippedButCostsAHop) {
  const ServerId holder = first_server_in('A');
  // J -> A transits I and D; empty out I.
  const WalkedRoute before = walk_route(
      router_, PartitionId{0}, world_.by_letter('J'), holder, live_by_dc_);
  auto live = live_by_dc_;
  std::vector<ServerId>& dead = live[world_.by_letter('I').value()];
  // Liveness changed: the owner of a Router reports it through the hooks
  // (the engine does this in fail_servers / recover_servers).
  router_.servers_down(dead);
  const std::vector<ServerId> victims = dead;
  dead.clear();
  const WalkedRoute after = walk_route(
      router_, PartitionId{0}, world_.by_letter('J'), holder, live);
  EXPECT_EQ(after.stages.size(), before.stages.size() - 1);
  EXPECT_EQ(after.total_hops, before.total_hops);  // hop still paid
  for (const RouteStage& stage : after.stages) {
    EXPECT_NE(stage.dc, world_.by_letter('I'));
  }
  // Reviving the datacenter restores the original route exactly.
  router_.servers_up(victims);
  const WalkedRoute revived = walk_route(
      router_, PartitionId{0}, world_.by_letter('J'), holder, live_by_dc_);
  ASSERT_EQ(revived.stages.size(), before.stages.size());
  for (std::size_t i = 0; i < before.stages.size(); ++i) {
    EXPECT_EQ(revived.stages[i].relay, before.stages[i].relay);
  }
}

TEST_F(RouterTest, RelayIsDeterministicPerPartition) {
  const ServerId holder = first_server_in('A');
  const WalkedRoute r1 = walk_route(
      router_, PartitionId{5}, world_.by_letter('J'), holder, live_by_dc_);
  const WalkedRoute r2 = walk_route(
      router_, PartitionId{5}, world_.by_letter('J'), holder, live_by_dc_);
  ASSERT_EQ(r1.stages.size(), r2.stages.size());
  for (std::size_t i = 0; i < r1.stages.size(); ++i) {
    EXPECT_EQ(r1.stages[i].relay, r2.stages[i].relay);
  }
}

TEST_F(RouterTest, DifferentPartitionsUseDifferentRelays) {
  // Rendezvous hashing spreads relay duty: across 64 partitions the
  // transit datacenter D must not always pick the same server.
  const ServerId holder = first_server_in('A');
  std::set<ServerId> relays;
  for (std::uint32_t p = 0; p < kFixturePartitions; ++p) {
    const WalkedRoute route = walk_route(
        router_, PartitionId{p}, world_.by_letter('J'), holder, live_by_dc_);
    for (const RouteStage& stage : route.stages) {
      if (stage.dc == world_.by_letter('D')) relays.insert(stage.relay);
    }
  }
  EXPECT_GT(relays.size(), 3u);
}

TEST_F(RouterTest, RelayForPicksAmongGivenServers) {
  const std::vector<ServerId> live{ServerId{12}, ServerId{13}};
  const ServerId relay =
      Router::relay_for(PartitionId{0}, DatacenterId{1}, live);
  EXPECT_TRUE(relay == ServerId{12} || relay == ServerId{13});
}

TEST_F(RouterTest, EveryStageIsTheFreshRelayOnThePathSpan) {
  // Every stage of every partition's route, from every requester: the
  // stage is the next datacenter of the shortest path, its relay is a
  // fresh relay_for pick over the live servers (the holder itself in the
  // holder's datacenter), and hops and latency follow the path. The first
  // walk of a partition fills its cells; later walks read them back.
  for (std::uint32_t p = 0; p < kFixturePartitions; ++p) {
    const PartitionId pid{p};
    const ServerId holder =
        world_.topology.servers_in(world_.dc[p % 10])[p % 7];
    const DatacenterId holder_dc = world_.topology.server(holder).datacenter;
    for (const DatacenterId requester : world_.dc) {
      const WalkedRoute route =
          walk_route(router_, pid, requester, holder, live_by_dc_);
      const std::span<const DatacenterId> path =
          paths_.path_span(requester, holder_dc);
      ASSERT_EQ(route.stages.size(), path.size());
      for (std::size_t i = 0; i < path.size(); ++i) {
        const RouteStage& stage = route.stages[i];
        EXPECT_EQ(stage.dc, path[i]);
        EXPECT_EQ(stage.relay,
                  stage.dc == holder_dc
                      ? holder
                      : Router::relay_for(pid, stage.dc,
                                          live_by_dc_[stage.dc.value()]))
            << "partition " << p << " stage " << i;
        EXPECT_EQ(stage.hops_at_entry, i + 1);
        EXPECT_DOUBLE_EQ(stage.latency_ms,
                         kHopLatencyMs * static_cast<double>(i + 1) +
                             paths_.distance_km(requester, stage.dc) /
                                 kFibreKmPerMs);
      }
      EXPECT_EQ(route.total_hops, path.size() + 1);
      EXPECT_DOUBLE_EQ(route.total_latency_ms,
                       kHopLatencyMs * static_cast<double>(path.size() + 1) +
                           paths_.distance_km(requester, holder_dc) /
                               kFibreKmPerMs);
    }
  }
}

TEST_F(RouterTest, ConcurrentShardsFillTheirOwnRows) {
  // The sharded propagate pattern: each shard routes only its own
  // partitions with its own context, filling those rows concurrently.
  // The result must equal serial routing on a fresh table.
  const Router serial(world_.topology, paths_, kFixturePartitions);
  std::vector<ServerId> expected;
  for (std::uint32_t p = 0; p < kFixturePartitions; ++p) {
    const ServerId holder = world_.topology.servers_in(world_.dc[p % 10])[0];
    for (const DatacenterId requester : world_.dc) {
      for (const RouteStage& stage :
           walk_route(serial, PartitionId{p}, requester, holder, live_by_dc_)
               .stages) {
        expected.push_back(stage.relay);
      }
    }
  }

  ThreadPool pool(4);
  constexpr unsigned kShards = 4;
  std::vector<Router::RouteCtx> ctx(kShards);
  std::vector<std::vector<ServerId>> got(kShards);
  parallel_for_shards(
      &pool, kFixturePartitions, kShards, [&](unsigned s, IndexRange range) {
        for (std::size_t p = range.begin; p < range.end; ++p) {
          const PartitionId pid{static_cast<std::uint32_t>(p)};
          const ServerId holder =
              world_.topology.servers_in(world_.dc[p % 10])[0];
          for (const DatacenterId requester : world_.dc) {
            for (const RouteStage& stage :
                 walk_route(router_, pid, requester, holder, live_by_dc_,
                            ctx[s])
                     .stages) {
              got[s].push_back(stage.relay);
            }
          }
        }
      });
  std::vector<ServerId> merged;
  for (unsigned s = 0; s < kShards; ++s) {
    merged.insert(merged.end(), got[s].begin(), got[s].end());
    router_.flush_counts(ctx[s]);
  }
  EXPECT_EQ(merged, expected);
}

// ---------------------------------------------------------------------
// Relay-table exactness: under randomized kill/revive waves — including
// a whole-datacenter outage and a revive into the emptied datacenter —
// every cached cell equals a fresh relay_for over the DC's live set.
class RelayTableTest : public ::testing::TestWithParam<int> {};

TEST_P(RelayTableTest, FilledCellsMatchFreshPicksAcrossKillReviveWaves) {
  const World world = build_synthetic_world(12);
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  const ShortestPaths paths(graph);
  constexpr std::uint32_t kPartitions = 40;
  Router router(world.topology, paths, kPartitions);
  const std::size_t n_dc = world.topology.datacenter_count();

  std::vector<std::uint8_t> alive(world.topology.server_count(), 1);
  std::vector<std::vector<ServerId>> live_by_dc(n_dc);
  const auto rebuild_live = [&] {
    for (std::size_t dc = 0; dc < n_dc; ++dc) {
      live_by_dc[dc].clear();
      const DatacenterId did{static_cast<std::uint32_t>(dc)};
      for (const ServerId s : world.topology.servers_in(did)) {
        if (alive[s.value()] != 0) live_by_dc[dc].push_back(s);
      }
    }
  };
  rebuild_live();

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
  const DatacenterId outage_dc{static_cast<std::uint32_t>(rng.uniform(n_dc))};
  std::size_t filled_checked = 0;
  for (int wave = 0; wave < 12; ++wave) {
    std::vector<ServerId> down;
    std::vector<ServerId> up;
    if (wave == 4) {
      // Whole-DC outage.
      for (const ServerId s : world.topology.servers_in(outage_dc)) {
        if (alive[s.value()] != 0) down.push_back(s);
      }
    } else if (wave == 6) {
      // Revive into the emptied datacenter: its cells stay empty until
      // a lookup, and the revived servers must not be skipped.
      const auto& servers = world.topology.servers_in(outage_dc);
      up.assign(servers.begin(), servers.begin() + 3);
    } else {
      for (const Server& server : world.topology.servers()) {
        // Keep the outage datacenter empty until the wave-6 revive.
        if (server.datacenter == outage_dc && wave == 5) continue;
        const double roll = rng.uniform_real();
        if (alive[server.id.value()] != 0 && roll < 0.15) {
          down.push_back(server.id);
        } else if (alive[server.id.value()] == 0 && roll < 0.5) {
          up.push_back(server.id);
        }
      }
    }
    for (const ServerId s : down) alive[s.value()] = 0;
    for (const ServerId s : up) alive[s.value()] = 1;
    rebuild_live();
    router.servers_down(down);
    router.servers_up(up);

    // Every filled cell — including cells filled in earlier waves — is
    // the fresh pick over today's live set.
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      for (std::size_t dc = 0; dc < n_dc; ++dc) {
        const PartitionId pid{p};
        const DatacenterId did{static_cast<std::uint32_t>(dc)};
        const ServerId cell = router.cached_relay(pid, did);
        if (!cell.valid()) continue;
        ++filled_checked;
        ASSERT_FALSE(live_by_dc[dc].empty())
            << "wave " << wave << ": cell of an empty datacenter";
        EXPECT_EQ(cell, Router::relay_for(pid, did, live_by_dc[dc]))
            << "wave " << wave << " partition " << p << " dc " << dc;
      }
    }

    // Route a random half of the partitions so some cells stay cold and
    // others carry over into the next wave.
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      if (rng.uniform(2) == 0) continue;
      const DatacenterId holder_dc{
          static_cast<std::uint32_t>(rng.uniform(n_dc))};
      if (live_by_dc[holder_dc.value()].empty()) continue;
      const ServerId holder = live_by_dc[holder_dc.value()].front();
      for (std::size_t r = 0; r < n_dc; ++r) {
        (void)walk_route(router, PartitionId{p},
                         DatacenterId{static_cast<std::uint32_t>(r)}, holder,
                         live_by_dc);
      }
    }
  }
  EXPECT_GT(filled_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelayTableTest, ::testing::Range(0, 6));

TEST(RelayTableWave, OneWaveOverManyDatacentersKeepsEveryCellExact) {
  // The hooks visit only the changed servers' datacenter columns and
  // settle each column against all of its changed servers at once. One
  // wave that kills several servers in every datacenter (each column's
  // current relay among them), then one that revives them all together,
  // must leave every filled cell equal to a fresh relay_for.
  const World world = build_synthetic_world(12);
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  const ShortestPaths paths(graph);
  constexpr std::uint32_t kPartitions = 24;
  Router router(world.topology, paths, kPartitions);
  const std::size_t n_dc = world.topology.datacenter_count();
  std::vector<std::vector<ServerId>> live_by_dc(n_dc);
  for (const Server& s : world.topology.servers()) {
    live_by_dc[s.datacenter.value()].push_back(s.id);
  }
  const auto fill_every_cell = [&] {
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      for (std::size_t dc = 0; dc < n_dc; ++dc) {
        const DatacenterId did{static_cast<std::uint32_t>(dc)};
        const ServerId cell = router.cached_relay(PartitionId{p}, did);
        if (cell.valid() || live_by_dc[dc].empty()) continue;
        // Any holder outside `dc` routes through it when the path starts
        // there; a local route's requester stage is the relay stage.
        const ServerId holder =
            live_by_dc[(dc + 1) % n_dc].empty()
                ? live_by_dc[dc].front()
                : live_by_dc[(dc + 1) % n_dc].front();
        (void)walk_route(router, PartitionId{p}, did, holder, live_by_dc);
      }
    }
  };
  const auto expect_exact = [&](const char* when) {
    std::size_t filled = 0;
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      for (std::size_t dc = 0; dc < n_dc; ++dc) {
        const PartitionId pid{p};
        const DatacenterId did{static_cast<std::uint32_t>(dc)};
        const ServerId cell = router.cached_relay(pid, did);
        if (!cell.valid()) continue;
        ++filled;
        ASSERT_FALSE(live_by_dc[dc].empty()) << when;
        EXPECT_EQ(cell, Router::relay_for(pid, did, live_by_dc[dc]))
            << when << ": partition " << p << " dc " << dc;
      }
    }
    EXPECT_GT(filled, kPartitions) << when;
  };

  fill_every_cell();
  Rng rng(77);
  std::vector<ServerId> wave;
  for (std::size_t dc = 0; dc < n_dc; ++dc) {
    const DatacenterId did{static_cast<std::uint32_t>(dc)};
    std::vector<ServerId>& live = live_by_dc[dc];
    // Partition (dc % kPartitions)'s relay here, plus three more.
    const ServerId relay =
        router.cached_relay(PartitionId{static_cast<std::uint32_t>(
                                dc % kPartitions)},
                            did);
    ASSERT_TRUE(relay.valid());
    std::vector<ServerId> doomed{relay};
    while (doomed.size() < std::min<std::size_t>(4, live.size() - 1)) {
      const ServerId s = live[rng.uniform(live.size())];
      if (std::find(doomed.begin(), doomed.end(), s) == doomed.end()) {
        doomed.push_back(s);
      }
    }
    for (const ServerId s : doomed) {
      live.erase(std::find(live.begin(), live.end(), s));
    }
    wave.insert(wave.end(), doomed.begin(), doomed.end());
  }
  rng.shuffle(std::span<ServerId>(wave));
  router.servers_down(wave);
  expect_exact("after the kill wave");

  fill_every_cell();
  for (const ServerId s : wave) {
    std::vector<ServerId>& live =
        live_by_dc[world.topology.server(s).datacenter.value()];
    live.insert(std::lower_bound(live.begin(), live.end(), s), s);
  }
  router.servers_up(wave);
  expect_exact("after the revive wave");
}

}  // namespace
}  // namespace rfh
