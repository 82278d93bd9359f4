#include "ring/rendezvous.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "ring/hash.h"

namespace rfh {
namespace {

std::vector<ServerId> servers(std::uint32_t n) {
  std::vector<ServerId> out;
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(ServerId{i});
  return out;
}

TEST(Rendezvous, Deterministic) {
  const auto candidates = servers(10);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(rendezvous_pick(key, candidates),
              rendezvous_pick(key, candidates));
  }
}

TEST(Rendezvous, ResultIsACandidate) {
  const auto candidates = servers(7);
  for (std::uint64_t key = 0; key < 500; ++key) {
    const ServerId pick = rendezvous_pick(key, candidates);
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), pick),
              candidates.end());
  }
}

TEST(Rendezvous, SingleCandidate) {
  const std::vector<ServerId> one{ServerId{3}};
  EXPECT_EQ(rendezvous_pick(42, one), ServerId{3});
}

TEST(Rendezvous, IndependentOfCandidateOrder) {
  auto candidates = servers(8);
  std::vector<ServerId> reversed(candidates.rbegin(), candidates.rend());
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(rendezvous_pick(key, candidates),
              rendezvous_pick(key, reversed));
  }
}

TEST(Rendezvous, StableWhenNonWinnerLeaves) {
  // The HRW property: removing any candidate that did not win leaves the
  // winner unchanged.
  const auto candidates = servers(10);
  for (std::uint64_t key = 0; key < 300; ++key) {
    const ServerId winner = rendezvous_pick(key, candidates);
    for (const ServerId leaver : candidates) {
      if (leaver == winner) continue;
      std::vector<ServerId> without;
      for (const ServerId s : candidates) {
        if (s != leaver) without.push_back(s);
      }
      EXPECT_EQ(rendezvous_pick(key, without), winner);
    }
  }
}

TEST(Rendezvous, SpreadsKeysRoughlyUniformly) {
  const auto candidates = servers(5);
  std::map<ServerId, int> counts;
  const int n = 20000;
  for (std::uint64_t key = 0; key < n; ++key) {
    ++counts[rendezvous_pick(key, candidates)];
  }
  for (const auto& [server, count] : counts) {
    EXPECT_GT(count, n / 10) << server.value();
    EXPECT_LT(count, n / 2) << server.value();
  }
}

TEST(Rendezvous, PrecomputedHashesPickTheSameServer) {
  // The hash-column form must be the hashing form with hash64(id) read
  // from the column: same winner over random, unsorted candidate sets.
  constexpr std::uint32_t kServers = 300;
  std::vector<std::uint64_t> hashes(kServers);
  for (std::uint32_t s = 0; s < kServers; ++s) hashes[s] = hash64(std::uint64_t{s});
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<ServerId> candidates;
    const std::uint64_t size = 1 + rng.uniform(64);
    for (const std::size_t id :
         rng.sample_without_replacement(kServers, size)) {
      candidates.push_back(ServerId{static_cast<std::uint32_t>(id)});
    }
    rng.shuffle(std::span<ServerId>(candidates));
    const std::uint64_t key = rng.next();
    EXPECT_EQ(rendezvous_pick(key, candidates, hashes),
              rendezvous_pick(key, candidates))
        << "trial " << trial;
  }
}

TEST(RendezvousDeath, EmptyCandidates) {
  const std::vector<ServerId> none;
  EXPECT_DEATH(rendezvous_pick(1, none), "");
}

}  // namespace
}  // namespace rfh
