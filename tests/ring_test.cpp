#include "ring/ring.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "ring/hash.h"

namespace rfh {
namespace {

HashRing make_ring(std::uint32_t servers, std::uint32_t tokens = 16) {
  HashRing ring(tokens);
  for (std::uint32_t s = 0; s < servers; ++s) {
    ring.add_server(ServerId{s});
  }
  return ring;
}

TEST(HashRing, ContainsAndCount) {
  HashRing ring = make_ring(5);
  EXPECT_EQ(ring.server_count(), 5u);
  EXPECT_TRUE(ring.contains(ServerId{0}));
  EXPECT_FALSE(ring.contains(ServerId{9}));
  ring.remove_server(ServerId{0});
  EXPECT_FALSE(ring.contains(ServerId{0}));
  EXPECT_EQ(ring.server_count(), 4u);
}

TEST(HashRing, PrimaryIsDeterministic) {
  const HashRing a = make_ring(20);
  const HashRing b = make_ring(20);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = rng.next();
    EXPECT_EQ(a.primary(key), b.primary(key));
  }
}

TEST(HashRing, SingleServerOwnsEverything) {
  const HashRing ring = make_ring(1);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.primary(rng.next()), ServerId{0});
  }
}

TEST(HashRing, PreferenceListDistinctAndStartsAtPrimary) {
  const HashRing ring = make_ring(10);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = rng.next();
    const auto list = ring.preference_list(key, 4);
    ASSERT_EQ(list.size(), 4u);
    EXPECT_EQ(list[0], ring.primary(key));
    const std::set<ServerId> unique(list.begin(), list.end());
    EXPECT_EQ(unique.size(), 4u);
  }
}

TEST(HashRing, PreferenceListCappedAtServerCount) {
  const HashRing ring = make_ring(3);
  const auto list = ring.preference_list(12345, 10);
  EXPECT_EQ(list.size(), 3u);
}

TEST(HashRing, KeysSpreadAcrossServers) {
  const HashRing ring = make_ring(10, 32);
  std::map<ServerId, int> counts;
  Rng rng(6);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[ring.primary(rng.next())];
  }
  EXPECT_EQ(counts.size(), 10u);  // every server owns keyspace
  for (const auto& [server, count] : counts) {
    // Each should own roughly 10%; allow generous virtual-node variance.
    EXPECT_GT(count, n / 40) << "server " << server.value();
    EXPECT_LT(count, n / 3) << "server " << server.value();
  }
}

TEST(HashRing, JoinMovesOnlyItsShare) {
  // Adding the (n+1)-th server must remap about 1/(n+1) of the keyspace
  // and never remap a key to a server other than the new one.
  HashRing ring = make_ring(10, 32);
  Rng rng(7);
  const int n = 20000;
  std::vector<std::uint64_t> keys(n);
  std::vector<ServerId> before(n);
  for (int i = 0; i < n; ++i) {
    keys[static_cast<std::size_t>(i)] = rng.next();
    before[static_cast<std::size_t>(i)] =
        ring.primary(keys[static_cast<std::size_t>(i)]);
  }
  ring.add_server(ServerId{10});
  int moved = 0;
  for (int i = 0; i < n; ++i) {
    const ServerId after = ring.primary(keys[static_cast<std::size_t>(i)]);
    if (after != before[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(after, ServerId{10}) << "key remapped to an old server";
      ++moved;
    }
  }
  const double fraction = static_cast<double>(moved) / n;
  EXPECT_GT(fraction, 0.02);
  EXPECT_LT(fraction, 0.30);  // ~1/11 expected; generous upper bound
}

TEST(HashRing, LeaveOnlyRemapsTheLeaverKeys) {
  HashRing ring = make_ring(10, 32);
  Rng rng(8);
  const int n = 20000;
  std::vector<std::uint64_t> keys(n);
  std::vector<ServerId> before(n);
  for (int i = 0; i < n; ++i) {
    keys[static_cast<std::size_t>(i)] = rng.next();
    before[static_cast<std::size_t>(i)] =
        ring.primary(keys[static_cast<std::size_t>(i)]);
  }
  ring.remove_server(ServerId{3});
  for (int i = 0; i < n; ++i) {
    const ServerId b = before[static_cast<std::size_t>(i)];
    const ServerId after = ring.primary(keys[static_cast<std::size_t>(i)]);
    if (b != ServerId{3}) {
      EXPECT_EQ(after, b) << "unaffected key moved on departure";
    } else {
      EXPECT_NE(after, ServerId{3});
    }
  }
}

TEST(HashRing, JoinThenLeaveRestoresMapping) {
  HashRing ring = make_ring(8, 16);
  Rng rng(9);
  std::vector<std::uint64_t> keys(5000);
  std::vector<ServerId> before(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.next();
    before[i] = ring.primary(keys[i]);
  }
  ring.add_server(ServerId{8});
  ring.remove_server(ServerId{8});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ring.primary(keys[i]), before[i]);
  }
}

TEST(HashRing, PartitionOwnerStableAcrossInstances) {
  const HashRing a = make_ring(25);
  const HashRing b = make_ring(25);
  for (std::uint32_t p = 0; p < 64; ++p) {
    EXPECT_EQ(a.partition_owner(PartitionId{p}),
              b.partition_owner(PartitionId{p}));
  }
}

TEST(HashRing, PartitionsSpreadOverServers) {
  const HashRing ring = make_ring(100, 16);
  std::set<ServerId> owners;
  for (std::uint32_t p = 0; p < 64; ++p) {
    owners.insert(ring.partition_owner(PartitionId{p}));
  }
  // 64 partitions over 100 servers: expect substantial spread.
  EXPECT_GT(owners.size(), 30u);
}

TEST(HashRing, BulkLeaveMatchesSequentialRemoves) {
  HashRing bulk = make_ring(60, 8);
  HashRing seq = make_ring(60, 8);
  std::vector<ServerId> victims;
  for (std::uint32_t s = 3; s < 60; s += 7) victims.push_back(ServerId{s});
  bulk.remove_servers(victims);
  for (const ServerId s : victims) seq.remove_server(s);
  EXPECT_EQ(bulk.server_count(), seq.server_count());
  for (const ServerId s : victims) EXPECT_FALSE(bulk.contains(s));
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(bulk.primary(key), seq.primary(key));
    EXPECT_EQ(bulk.preference_list(key, 5), seq.preference_list(key, 5));
  }
}

TEST(HashRing, BulkLeaveThenRejoinRestoresMapping) {
  HashRing ring = make_ring(40);
  std::map<std::uint64_t, ServerId> before;
  for (std::uint64_t key = 0; key < 256; ++key) {
    before[key] = ring.primary(key);
  }
  const std::vector<ServerId> wave{ServerId{4}, ServerId{11}, ServerId{29},
                                   ServerId{33}};
  ring.remove_servers(wave);
  EXPECT_EQ(ring.server_count(), 36u);
  ring.add_servers(wave);
  // Token positions are pure hashes of (server, index), so a rejoin puts
  // every token back where it was and the keyspace mapping is restored.
  for (const auto& [key, owner] : before) {
    EXPECT_EQ(ring.primary(key), owner);
  }
}

TEST(HashRing, MixedJoinOfKnownAndNewServersMatchesAFreshRing) {
  // add_servers flips known servers back to live and merges the tokens of
  // never-seen ones; either way the ring must answer like one built from
  // scratch over the live set.
  HashRing ring = make_ring(40);
  std::vector<ServerId> gone;
  for (std::uint32_t s = 0; s < 40; s += 4) gone.push_back(ServerId{s});
  ring.remove_servers(gone);
  EXPECT_EQ(ring.server_count(), 30u);
  const std::vector<ServerId> wave{ServerId{44}, ServerId{8}, ServerId{41},
                                   ServerId{0}, ServerId{36}};
  ring.add_servers(wave);
  EXPECT_EQ(ring.server_count(), 35u);

  std::set<ServerId> members;
  for (std::uint32_t s = 0; s < 40; ++s) members.insert(ServerId{s});
  for (const ServerId s : gone) members.erase(s);
  members.insert(wave.begin(), wave.end());
  const std::vector<ServerId> live(members.begin(), members.end());
  ASSERT_EQ(live.size(), 35u);
  HashRing fresh(16);
  fresh.add_servers(live);
  for (const ServerId s : live) EXPECT_TRUE(ring.contains(s));
  EXPECT_FALSE(ring.contains(ServerId{4}));
  Rng rng(10);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t key = rng.next();
    ASSERT_EQ(ring.primary(key), fresh.primary(key));
    ASSERT_EQ(ring.preference_list(key, 35), fresh.preference_list(key, 35));
  }
}

TEST(HashRing, LeaveOfEveryServerEmptiesTheRing) {
  HashRing ring = make_ring(6);
  std::vector<ServerId> all;
  for (std::uint32_t s = 0; s < 6; ++s) all.push_back(ServerId{s});
  const std::vector<ServerId> before = ring.preference_list(99, 6);
  ring.remove_servers(all);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.server_count(), 0u);
  ring.add_servers(all);
  EXPECT_EQ(ring.server_count(), 6u);
  EXPECT_EQ(ring.preference_list(99, 6), before);
}

TEST(HashRingDeath, Misuse) {
  HashRing ring = make_ring(2);
  EXPECT_DEATH(ring.add_server(ServerId{0}), "");        // duplicate
  EXPECT_DEATH(ring.remove_server(ServerId{7}), "");     // absent
  EXPECT_DEATH(ring.add_server(ServerId::invalid()), "");
  HashRing empty(4);
  EXPECT_DEATH((void)empty.primary(1), "");
  ring.remove_server(ServerId{1});
  EXPECT_DEATH(ring.remove_server(ServerId{1}), "");     // already departed
  EXPECT_DEATH(ring.remove_server(ServerId{0});
               (void)ring.primary(1), "");               // no live server
  EXPECT_DEATH(HashRing(0), "");
}

}  // namespace
}  // namespace rfh
