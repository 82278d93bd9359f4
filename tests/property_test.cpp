// Cross-module property sweeps (parameterized): invariants that must hold
// for any seed, size, or threshold configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <random>
#include <unordered_map>

#include "common/availability.h"
#include "core/rfh_policy.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "net/graph.h"
#include "ring/hash.h"
#include "ring/ring.h"
#include "sim/cluster.h"
#include "sim/tables.h"
#include "test_util.h"
#include "topology/world.h"

namespace rfh {
namespace {

// ---------------------------------------------------------------------
// Ring balance across sizes and token counts.
class RingBalanceTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(RingBalanceTest, TokenCountControlsSpread) {
  const auto [servers, tokens] = GetParam();
  HashRing ring(tokens);
  for (std::uint32_t s = 0; s < servers; ++s) ring.add_server(ServerId{s});

  std::vector<int> counts(servers, 0);
  Rng rng(1234);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    ++counts[ring.primary(rng.next()).value()];
  }
  // Every server owns keyspace, and nobody owns more than a small
  // multiple of its fair share (looser for fewer tokens).
  const double fair = static_cast<double>(n) / servers;
  const double slack = tokens >= 16 ? 3.0 : 6.0;
  for (std::uint32_t s = 0; s < servers; ++s) {
    EXPECT_GT(counts[s], 0) << "server " << s << " owns nothing";
    EXPECT_LT(counts[s], slack * fair) << "server " << s << " over-owns";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndTokens, RingBalanceTest,
    ::testing::Combine(::testing::Values<std::uint32_t>(3, 10, 50),
                       ::testing::Values<std::uint32_t>(4, 16, 64)));

// ---------------------------------------------------------------------
// Traffic propagation invariants under random demand and capacities.
class PropagationInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(PropagationInvariantTest, ConservationCapacityAndNonNegativity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  SimConfig config;
  config.partitions = 6;
  WorldOptions options;
  options.per_replica_capacity_lo = 0.5 + rng.uniform_real() * 2.0;
  options.per_replica_capacity_hi =
      options.per_replica_capacity_lo + rng.uniform_real() * 4.0;
  options.seed = rng.next();

  // Random fixed demand.
  QueryBatch batch;
  for (std::uint32_t p = 0; p < config.partitions; ++p) {
    const auto requesters = 1 + rng.uniform(4);
    for (std::uint64_t j = 0; j < requesters; ++j) {
      batch.push_back(QueryFlow{
          PartitionId{p},
          DatacenterId{static_cast<std::uint32_t>(rng.uniform(10))},
          1.0 + rng.uniform_real() * 20.0});
    }
  }
  // Random policy so replica sets evolve while we check.
  auto sim = test::make_fixed_sim(batch, std::make_unique<RfhPolicy>(),
                                  config, options);
  for (int e = 0; e < 20; ++e) {
    sim->step();
    const EpochTraffic& traffic = sim->traffic();
    for (std::uint32_t pv = 0; pv < config.partitions; ++pv) {
      const PartitionId p{pv};
      double served = 0.0;
      for (std::uint32_t sv = 0; sv < traffic.servers(); ++sv) {
        const ServerId s{sv};
        EXPECT_GE(traffic.served(p, s), 0.0);
        EXPECT_GE(traffic.node_traffic(p, s), 0.0);
        EXPECT_LE(traffic.served(p, s),
                  sim->topology().server(s).spec.per_replica_capacity + 1e-9);
        served += traffic.served(p, s);
      }
      EXPECT_NEAR(served + traffic.unserved(p), traffic.partition_queries(p),
                  1e-6);
    }
    sim->cluster().check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationInvariantTest,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------------
// Threshold sweeps: the decision tree must stay sane for any reasonable
// beta/gamma/delta/mu.
struct ThresholdCase {
  double beta;
  double gamma;
  double delta;
  double mu;
};

class ThresholdSweepTest : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(ThresholdSweepTest, RfhStaysWithinFloorAndCap) {
  const ThresholdCase& c = GetParam();
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 60;
  scenario.sim.beta = c.beta;
  scenario.sim.gamma = c.gamma;
  scenario.sim.delta = c.delta;
  scenario.sim.mu = c.mu;
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  const std::uint32_t floor =
      min_replicas(scenario.sim.min_availability, scenario.sim.failure_rate);
  // Tail census bounded by floor and cap.
  const double avg_tail =
      tail_mean(run, &EpochMetrics::avg_replicas_per_partition, 15);
  EXPECT_GE(avg_tail, static_cast<double>(floor) - 0.1);
  EXPECT_LE(avg_tail,
            static_cast<double>(scenario.sim.max_replicas_per_partition));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThresholdSweepTest,
    ::testing::Values(ThresholdCase{1.2, 1.1, 0.1, 0.5},
                      ThresholdCase{2.0, 1.5, 0.2, 1.0},
                      ThresholdCase{3.0, 2.0, 0.4, 2.0},
                      ThresholdCase{4.0, 3.0, 0.05, 4.0},
                      ThresholdCase{1.5, 2.5, 0.6, 0.25}));

// ---------------------------------------------------------------------
// Availability floor inverse property over a grid.
class FloorGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FloorGridTest, MinReplicasIsTheLeastSufficientCount) {
  const auto [target, f] = GetParam();
  const std::uint32_t r = min_replicas(target, f);
  EXPECT_GE(availability(r, f), target);
  if (r > 2) {
    EXPECT_LT(availability(r - 1, f), target);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TargetsAndFailureRates, FloorGridTest,
    ::testing::Combine(::testing::Values(0.8, 0.9, 0.99, 0.9999),
                       ::testing::Values(0.01, 0.1, 0.25, 0.5, 0.75)));

// ---------------------------------------------------------------------
// Scenario determinism across every policy and workload kind.
struct DeterminismCase {
  PolicyKind policy;
  WorkloadKind workload;
};

class DeterminismTest : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(DeterminismTest, IdenticalRunsProduceIdenticalSeries) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.workload = GetParam().workload;
  scenario.epochs = 40;
  const PolicyRun a = run_policy(scenario, GetParam().policy);
  const PolicyRun b = run_policy(scenario, GetParam().policy);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].total_replicas, b.series[i].total_replicas);
    EXPECT_EQ(a.series[i].migrations_total, b.series[i].migrations_total);
    EXPECT_DOUBLE_EQ(a.series[i].utilization, b.series[i].utilization);
    EXPECT_DOUBLE_EQ(a.series[i].replication_cost_total,
                     b.series[i].replication_cost_total);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyWorkloadGrid, DeterminismTest,
    ::testing::Values(
        DeterminismCase{PolicyKind::kRequest, WorkloadKind::kUniform},
        DeterminismCase{PolicyKind::kOwner, WorkloadKind::kFlashCrowd},
        DeterminismCase{PolicyKind::kRandom, WorkloadKind::kHotspotShift},
        DeterminismCase{PolicyKind::kRfh, WorkloadKind::kUniform},
        DeterminismCase{PolicyKind::kRfh, WorkloadKind::kFlashCrowd}));

// ---------------------------------------------------------------------
// The simulation scales to bigger synthetic worlds without violating
// invariants.
class WorldScaleTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WorldScaleTest, BiggerWorldsRunCleanly) {
  Scenario scenario;
  scenario.datacenters = GetParam();
  scenario.sim.partitions = 16;
  const auto sim = make_simulation(scenario, PolicyKind::kRfh);
  for (int e = 0; e < 25; ++e) sim->step();
  sim->cluster().check_invariants();
  EXPECT_GT(sim->cluster().total_replicas(), 16u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorldScaleTest,
                         ::testing::Values<std::uint32_t>(2, 5, 10, 25));

// ---------------------------------------------------------------------
// Chaos property: any seeded random fault plan must run to completion
// with zero invariant violations. The replica_floor invariant inside the
// checker is the paper-level property: a partition below the Eq. 14
// minimum is only ever explained by a recorded failure (lost copy on a
// dead server / data loss), never by a voluntary policy action.
FaultPlan random_fault_plan(std::uint64_t seed, Epoch horizon) {
  Rng rng(seed);
  FaultPlan plan;

  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.at = static_cast<Epoch>(5 + rng.uniform(horizon / 3));
  crash.count = static_cast<std::uint32_t>(1 + rng.uniform(6));
  plan.add(crash);

  FaultEvent outage;
  outage.kind = FaultKind::kDatacenterOutage;
  outage.at = static_cast<Epoch>(10 + rng.uniform(horizon / 2));
  outage.dc = DatacenterId{static_cast<std::uint32_t>(rng.uniform(10))};
  outage.recover_after = static_cast<Epoch>(2 + rng.uniform(12));
  plan.add(outage);

  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = static_cast<Epoch>(rng.uniform(horizon / 4));
  churn.until = static_cast<Epoch>(
      churn.at + 10 + rng.uniform(horizon - churn.at));
  churn.period = static_cast<Epoch>(2 + rng.uniform(8));
  churn.kill = static_cast<std::uint32_t>(1 + rng.uniform(3));
  churn.recover = churn.kill;  // rolling wave: population stays bounded
  plan.add(churn);

  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.at = static_cast<Epoch>(rng.uniform(horizon / 2));
  flap.until = static_cast<Epoch>(flap.at + 10 + rng.uniform(30));
  flap.link_a = DatacenterId{static_cast<std::uint32_t>(rng.uniform(10))};
  flap.link_b = DatacenterId{
      static_cast<std::uint32_t>((flap.link_a.value() + 1 + rng.uniform(9)) %
                                 10)};
  flap.period = static_cast<Epoch>(2 + rng.uniform(6));
  flap.down = static_cast<Epoch>(1 + rng.uniform(flap.period));
  plan.add(flap);

  FaultEvent crowd;
  crowd.kind = FaultKind::kFlashCrowd;
  crowd.at = static_cast<Epoch>(rng.uniform(horizon));
  crowd.duration = static_cast<Epoch>(1 + rng.uniform(20));
  crowd.factor = 1.5 + rng.uniform_real() * 4.0;
  plan.add(crowd);

  FaultEvent heal;
  heal.kind = FaultKind::kRecover;
  heal.at = static_cast<Epoch>(horizon - 1 - rng.uniform(horizon / 4));
  heal.count = static_cast<std::uint32_t>(1 + rng.uniform(8));
  plan.add(heal);

  return plan;
}

class ChaosPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosPropertyTest, RandomPlansRunWithZeroViolations) {
  constexpr Epoch kHorizon = 80;
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = kHorizon;
  scenario.fault_plan = random_fault_plan(GetParam(), kHorizon);

  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun run =
      run_policy(scenario, PolicyKind::kRfh, {}, RfhPolicy::Options{},
                 nullptr, nullptr, nullptr, &checker);

  EXPECT_EQ(checker.epochs_checked(), kHorizon);
  EXPECT_TRUE(checker.violations().empty()) << checker.summary();
  // The plan actually did something, and every chaos kill was surfaced.
  EXPECT_GT(run.faults_injected, 0u);
  std::uint64_t kind_sum = 0;
  for (const std::uint64_t n : run.faults_by_kind) kind_sum += n;
  EXPECT_EQ(kind_sum, run.faults_injected);
  EXPECT_EQ(run.series.size(), kHorizon);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPropertyTest,
                         ::testing::Values<std::uint64_t>(1, 7, 42, 1000,
                                                          31337, 987654321));

// The same seeded plan must injure the same servers in the same order —
// chaos victim selection has its own RNG stream, so repeated runs agree
// even though the plan interleaves with workload and policy randomness.
TEST(ChaosPropertyTest, SamePlanSameSeedKillsIdentically) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 60;
  scenario.fault_plan = random_fault_plan(99, 60);
  const PolicyRun a = run_policy(scenario, PolicyKind::kRfh);
  const PolicyRun b = run_policy(scenario, PolicyKind::kRfh);
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

// --------------------------------------------------------------------------
// Flat-ring reference check (promised by ring.h): the sorted-array
// HashRing is defined to be byte-identical to the seed's
// std::map walk. A reference implementation with the same token hashing
// and collision probe is driven through randomized add/remove
// interleavings, and both structures are compared on every lookup path
// after every mutation.

/// The seed implementation: token positions in a std::map, every
/// preference_list a fresh clockwise distinct-server walk.
class MapRingReference {
 public:
  explicit MapRingReference(std::uint32_t tokens_per_server)
      : tokens_per_server_(tokens_per_server) {}

  void add_server(ServerId server) {
    auto& positions = server_tokens_[server];
    for (std::uint32_t i = 0; i < tokens_per_server_; ++i) {
      std::uint64_t pos = hash_combine(hash64(std::uint64_t{server.value()}),
                                       hash64(std::uint64_t{i}));
      while (ring_.contains(pos)) ++pos;  // same probe as HashRing
      ring_.emplace(pos, server);
      positions.push_back(pos);
    }
  }

  void remove_server(ServerId server) {
    const auto it = server_tokens_.find(server);
    if (it == server_tokens_.end()) return;
    for (const std::uint64_t pos : it->second) ring_.erase(pos);
    server_tokens_.erase(it);
  }

  [[nodiscard]] ServerId primary(std::uint64_t key) const {
    auto it = ring_.lower_bound(key);
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }

  [[nodiscard]] std::vector<ServerId> preference_list(std::uint64_t key,
                                                      std::size_t n) const {
    std::vector<ServerId> out;
    out.reserve(n);
    auto it = ring_.lower_bound(key);
    if (it == ring_.end()) it = ring_.begin();
    for (std::size_t step = 0;
         step < ring_.size() && out.size() < n &&
         out.size() < server_tokens_.size();
         ++step) {
      if (std::find(out.begin(), out.end(), it->second) == out.end()) {
        out.push_back(it->second);
      }
      ++it;
      if (it == ring_.end()) it = ring_.begin();
    }
    return out;
  }

  [[nodiscard]] std::size_t server_count() const noexcept {
    return server_tokens_.size();
  }

 private:
  std::uint32_t tokens_per_server_;
  std::map<std::uint64_t, ServerId> ring_;
  std::unordered_map<ServerId, std::vector<std::uint64_t>> server_tokens_;
};

class RingReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingReferenceTest, FlatLookupMatchesMapWalkUnderRandomInterleavings) {
  constexpr std::uint32_t kTokens = 8;
  HashRing flat(kTokens);
  MapRingReference reference(kTokens);
  std::mt19937_64 rng(GetParam());

  std::vector<ServerId> members;
  std::uint32_t next_id = 1;
  const auto check_agreement = [&] {
    if (members.empty()) return;
    // A fixed key set plus fresh random keys each round: the fixed keys
    // re-query cached successor slots across invalidations, the random
    // keys probe cold slots.
    for (int k = 0; k < 24; ++k) {
      const std::uint64_t key =
          k < 8 ? hash64(static_cast<std::uint64_t>(k)) : rng();
      ASSERT_EQ(flat.primary(key), reference.primary(key)) << "key " << key;
      for (const std::size_t n :
           {std::size_t{1}, std::size_t{3}, members.size(),
            members.size() + 5}) {
        ASSERT_EQ(flat.preference_list(key, n),
                  reference.preference_list(key, n))
            << "key " << key << " n " << n;
      }
    }
  };

  for (int step = 0; step < 120; ++step) {
    const bool remove = !members.empty() &&
                        (members.size() > 40 || rng() % 3 == 0);
    if (remove) {
      const std::size_t victim = rng() % members.size();
      const ServerId gone = members[victim];
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(victim));
      flat.remove_server(gone);
      reference.remove_server(gone);
      EXPECT_FALSE(flat.contains(gone));
    } else {
      const ServerId fresh{next_id++};
      members.push_back(fresh);
      flat.add_server(fresh);
      reference.add_server(fresh);
      EXPECT_TRUE(flat.contains(fresh));
    }
    ASSERT_EQ(flat.server_count(), reference.server_count());
    check_agreement();
  }
}

TEST_P(RingReferenceTest, SuccessorCacheNeverServesARemovedServer) {
  // No lookup path may return a departed server: remove servers one at
  // a time, querying the same keys before and after each departure, and
  // assert neither the preference list nor the primary names a dead one.
  constexpr std::uint32_t kTokens = 16;
  HashRing ring(kTokens);
  std::mt19937_64 rng(GetParam() ^ 0x9e3779b97f4a7c15ull);

  std::vector<ServerId> members;
  for (std::uint32_t s = 1; s <= 32; ++s) {
    members.push_back(ServerId{s});
    ring.add_server(ServerId{s});
  }
  std::vector<std::uint64_t> keys(64);
  for (std::uint64_t& key : keys) key = rng();

  std::vector<ServerId> dead;
  while (members.size() > 1) {
    for (const std::uint64_t key : keys) {
      (void)ring.preference_list(key, members.size());
    }
    const std::size_t victim = rng() % members.size();
    dead.push_back(members[victim]);
    ring.remove_server(members[victim]);
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(victim));

    for (const std::uint64_t key : keys) {
      const std::vector<ServerId> pref =
          ring.preference_list(key, members.size() + dead.size());
      EXPECT_EQ(pref.size(), members.size());
      for (const ServerId s : pref) {
        EXPECT_EQ(std::find(dead.begin(), dead.end(), s), dead.end())
            << "dead server " << s.value() << " in a preference list";
      }
      EXPECT_EQ(std::find(dead.begin(), dead.end(), ring.primary(key)),
                dead.end());
    }
  }
}

TEST_P(RingReferenceTest, MaskedRingMatchesAFreshRingAcrossKillReviveWaves) {
  // Departed servers keep their tokens behind a liveness mask. After every
  // wave — random kills and revives, a whole-datacenter leave, a revive
  // into the emptied datacenter and a rejoin of every server — the masked
  // ring must answer primary, preference_list and for_each_preference
  // exactly as a ring freshly built from the live set.
  constexpr std::uint32_t kServers = 64;
  constexpr std::uint32_t kPerDc = 8;  // datacenter d holds [8d, 8d + 8)
  constexpr std::uint32_t kTokens = 8;
  HashRing ring(kTokens);
  std::vector<ServerId> all;
  for (std::uint32_t s = 0; s < kServers; ++s) all.push_back(ServerId{s});
  ring.add_servers(all);
  std::vector<std::uint8_t> alive(kServers, 1);
  std::mt19937_64 rng(GetParam() ^ 0x5bd1e995ull);
  std::vector<std::uint64_t> keys(48);
  for (std::uint64_t& key : keys) key = rng();

  const auto check = [&](int wave) {
    std::vector<ServerId> live;
    for (std::uint32_t s = 0; s < kServers; ++s) {
      if (alive[s] != 0) live.push_back(ServerId{s});
    }
    ASSERT_EQ(ring.server_count(), live.size()) << "wave " << wave;
    HashRing fresh(kTokens);
    fresh.add_servers(live);
    const auto first_five = [](const HashRing& r, std::uint64_t key) {
      std::vector<ServerId> out;
      r.for_each_preference(key, [&](ServerId s) {
        out.push_back(s);
        return out.size() < 5;
      });
      return out;
    };
    for (const std::uint64_t key : keys) {
      ASSERT_EQ(ring.primary(key), fresh.primary(key)) << "wave " << wave;
      for (const std::size_t n : {std::size_t{3}, live.size()}) {
        ASSERT_EQ(ring.preference_list(key, n), fresh.preference_list(key, n))
            << "wave " << wave << " n " << n;
      }
      ASSERT_EQ(first_five(ring, key), first_five(fresh, key))
          << "wave " << wave;
    }
  };

  const std::uint32_t outage_dc =
      static_cast<std::uint32_t>(GetParam() % (kServers / kPerDc));
  const auto in_outage_dc = [&](std::uint32_t s) {
    return s / kPerDc == outage_dc;
  };
  for (int wave = 0; wave < 10; ++wave) {
    std::vector<ServerId> down;
    std::vector<ServerId> up;
    for (std::uint32_t s = 0; s < kServers; ++s) {
      const bool is_alive = alive[s] != 0;
      if (wave == 3) {
        if (in_outage_dc(s) && is_alive) down.push_back(ServerId{s});
      } else if (wave == 5) {
        // Revive into the emptied datacenter.
        if (in_outage_dc(s) && s % kPerDc < 3) up.push_back(ServerId{s});
      } else if (wave == 9) {
        if (!is_alive) up.push_back(ServerId{s});  // rejoin every server
      } else if (!(wave == 4 && in_outage_dc(s))) {
        const std::uint64_t roll = rng() % 10;
        if (is_alive && roll < 2) down.push_back(ServerId{s});
        if (!is_alive && roll < 4) up.push_back(ServerId{s});
      }
    }
    std::uint32_t live_now = 0;
    for (const std::uint8_t a : alive) live_now += a;
    if (down.size() >= live_now) down.pop_back();  // keep one standing
    // Odd waves go one server at a time, even waves in one batch.
    if (wave % 2 == 1) {
      for (const ServerId s : down) ring.remove_server(s);
      for (const ServerId s : up) ring.add_server(s);
    } else {
      ring.remove_servers(down);
      ring.add_servers(up);
    }
    for (const ServerId s : down) alive[s.value()] = 0;
    for (const ServerId s : up) alive[s.value()] = 1;
    check(wave);
  }
  EXPECT_EQ(ring.server_count(), kServers);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingReferenceTest,
                         ::testing::Values<std::uint64_t>(3, 17, 404, 90210));

// --------------------------------------------------------------------------
// Flat SoA table reference check (promised by sim/tables.h): the strided
// PartitionTable slab must behave exactly like the seed's nested
// vector-of-vectors — same insertion order, same shift-on-remove
// sequence — and the ServerTable columns like plain per-server maps.
// Randomized interleavings force stride growth (slab rebuilds) mid-run.

class TableReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TableReferenceTest, StridedSlabMatchesNestedVectorsUnderChurn) {
  constexpr std::uint32_t kPartitions = 12;
  constexpr std::uint32_t kServers = 40;
  PartitionTable table(kPartitions, /*initial_stride=*/2);
  std::vector<std::vector<Replica>> reference(kPartitions);
  std::mt19937_64 rng(GetParam());

  const auto check_agreement = [&] {
    std::uint32_t total = 0;
    for (std::uint32_t pv = 0; pv < kPartitions; ++pv) {
      const PartitionId p{pv};
      const std::vector<Replica>& row = reference[pv];
      total += static_cast<std::uint32_t>(row.size());
      ASSERT_EQ(table.count(p), row.size());
      const std::span<const Replica> slab = table.replicas(p);
      ASSERT_EQ(slab.size(), row.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        EXPECT_EQ(slab[i].server, row[i].server) << "p " << pv << " slot " << i;
        EXPECT_EQ(slab[i].primary, row[i].primary)
            << "p " << pv << " slot " << i;
      }
      for (std::uint32_t sv = 0; sv < kServers; ++sv) {
        const bool hosted =
            std::find_if(row.begin(), row.end(), [sv](const Replica& r) {
              return r.server == ServerId{sv};
            }) != row.end();
        ASSERT_EQ(table.has(p, ServerId{sv}), hosted);
      }
      const auto primary =
          std::find_if(row.begin(), row.end(),
                       [](const Replica& r) { return r.primary; });
      if (primary != row.end()) {
        EXPECT_EQ(table.primary_of(p), primary->server);
      }
    }
    EXPECT_EQ(table.total(), total);
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint32_t pv =
        static_cast<std::uint32_t>(rng() % kPartitions);
    const PartitionId p{pv};
    std::vector<Replica>& row = reference[pv];
    // Bias toward adds on one hot partition so its row outgrows the
    // initial stride several times (doubling slab rebuilds).
    const bool add = row.empty() || (rng() % 3 != 0 && row.size() < kServers);
    if (add) {
      std::uint32_t sv = static_cast<std::uint32_t>(rng() % kServers);
      while (table.has(p, ServerId{sv})) sv = (sv + 1) % kServers;
      const bool primary = row.empty();
      table.add(p, ServerId{sv}, primary);
      row.push_back(Replica{ServerId{sv}, primary});
    } else if (rng() % 4 == 0 && row.size() > 1) {
      // Re-point the primary at a random member, like a promotion.
      const std::size_t pick = rng() % row.size();
      table.set_primary(p, row[pick].server);
      for (std::size_t i = 0; i < row.size(); ++i) {
        row[i].primary = i == pick;
      }
    } else {
      // Remove a random non-primary copy (the engine never drops a
      // primary without promoting first).
      std::vector<std::size_t> removable;
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (!row[i].primary) removable.push_back(i);
      }
      if (removable.empty()) continue;
      const std::size_t victim = removable[rng() % removable.size()];
      table.remove(p, row[victim].server);
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    check_agreement();
  }
  EXPECT_GT(table.stride(), 2u) << "sweep never forced a slab rebuild";
}

TEST_P(TableReferenceTest, ServerColumnsMatchPlainMapsUnderChurn) {
  constexpr std::uint32_t kServers = 24;
  ServerTable table(kServers);
  table.bring_all_up();
  struct RefServer {
    bool alive = true;
    std::uint32_t copies = 0;
  };
  std::vector<RefServer> reference(kServers);
  std::mt19937_64 rng(GetParam() ^ 0xfeedface);

  std::uint32_t live = kServers;
  for (int step = 0; step < 300; ++step) {
    const std::uint32_t sv = static_cast<std::uint32_t>(rng() % kServers);
    const ServerId s{sv};
    RefServer& ref = reference[sv];
    switch (rng() % 4) {
      case 0:
        table.set_alive(s, !ref.alive);
        ref.alive = !ref.alive;
        live += ref.alive ? 1u : -1u;
        break;
      case 1:
        table.inc_copies(s);
        ++ref.copies;
        break;
      default:
        if (ref.copies > 0) {
          table.dec_copies(s);
          --ref.copies;
        }
        break;
    }
    ASSERT_EQ(table.live_count(), live);
    for (std::uint32_t v = 0; v < kServers; ++v) {
      ASSERT_EQ(table.alive(ServerId{v}), reference[v].alive);
      ASSERT_EQ(table.copies(ServerId{v}), reference[v].copies);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableReferenceTest,
                         ::testing::Values<std::uint64_t>(5, 71, 1009, 52662));

// --------------------------------------------------------------------------
// ClusterState vs a naive reference under membership churn, server death
// and action application. The reference keeps nested vectors plus plain
// liveness flags; every mutation runs against both and the full placement
// state is compared — including hosts_in_dc's deterministic absorption
// order and the ascending-partition order of kill_servers' loss report.

class ClusterReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterReferenceTest, FlatTablesMatchNaiveReferenceUnderChurn) {
  WorldOptions options;
  options.seed = GetParam();
  const World world = build_synthetic_world(4, options);
  const std::uint32_t n_servers =
      static_cast<std::uint32_t>(world.topology.server_count());
  SimConfig config;
  config.partitions = 20;

  ClusterState cluster(world.topology, config);
  std::vector<std::vector<Replica>> rows(config.partitions);
  std::vector<bool> ref_alive(n_servers, true);
  std::mt19937_64 rng(GetParam() * 2654435761u + 3);

  // Seed one primary per partition on an arbitrary live server.
  for (std::uint32_t pv = 0; pv < config.partitions; ++pv) {
    const ServerId s{pv % n_servers};
    cluster.add_replica(PartitionId{pv}, s, /*primary=*/true);
    rows[pv].push_back(Replica{s, true});
  }

  const auto ref_add = [&](std::uint32_t pv, ServerId s, bool primary) {
    rows[pv].push_back(Replica{s, primary});
  };
  const auto ref_remove = [&](std::uint32_t pv, ServerId s) {
    std::vector<Replica>& row = rows[pv];
    row.erase(std::find_if(row.begin(), row.end(), [s](const Replica& r) {
      return r.server == s;
    }));
  };
  const auto ref_set_primary = [&](std::uint32_t pv, ServerId s) {
    for (Replica& r : rows[pv]) r.primary = r.server == s;
  };
  // Mirror of the engine's lost-primary handling: promote a surviving
  // copy, else re-seed on any server that can accept one.
  const auto repromote = [&](PartitionId p) {
    if (!rows[p.value()].empty()) {
      const ServerId survivor = rows[p.value()].front().server;
      cluster.set_primary(p, survivor);
      ref_set_primary(p.value(), survivor);
      return;
    }
    for (std::uint32_t sv = 0; sv < n_servers; ++sv) {
      if (cluster.can_accept(ServerId{sv}, p)) {
        cluster.add_replica(p, ServerId{sv}, /*primary=*/true);
        ref_add(p.value(), ServerId{sv}, true);
        return;
      }
    }
  };

  const auto check_agreement = [&] {
    std::uint32_t total = 0;
    for (std::uint32_t pv = 0; pv < config.partitions; ++pv) {
      const PartitionId p{pv};
      const std::vector<Replica>& row = rows[pv];
      total += static_cast<std::uint32_t>(row.size());
      ASSERT_EQ(cluster.replica_count(p), row.size()) << "p " << pv;
      const std::span<const Replica> got = cluster.replicas_of(p);
      for (std::size_t i = 0; i < row.size(); ++i) {
        ASSERT_EQ(got[i].server, row[i].server) << "p " << pv;
        ASSERT_EQ(got[i].primary, row[i].primary) << "p " << pv;
      }
    }
    EXPECT_EQ(cluster.total_replicas(), total);
    // Per-server columns reconcile with the rows.
    std::vector<std::uint32_t> copies(n_servers, 0);
    for (const std::vector<Replica>& row : rows) {
      for (const Replica& r : row) ++copies[r.server.value()];
    }
    for (std::uint32_t sv = 0; sv < n_servers; ++sv) {
      ASSERT_EQ(cluster.copies_on(ServerId{sv}), copies[sv]);
      ASSERT_EQ(cluster.alive(ServerId{sv}), ref_alive[sv]);
      ASSERT_EQ(cluster.storage_used(ServerId{sv}),
                copies[sv] * config.partition_size);
    }
    // hosts_in_dc: non-primaries first, each group ascending server id.
    for (const DatacenterId dc : world.dc) {
      const PartitionId p{static_cast<std::uint32_t>(rng() %
                                                     config.partitions)};
      std::vector<ServerId> expected;
      for (const bool primary_pass : {false, true}) {
        std::vector<ServerId> group;
        for (const Replica& r : rows[p.value()]) {
          if (r.primary == primary_pass &&
              world.topology.server(r.server).datacenter == dc) {
            group.push_back(r.server);
          }
        }
        std::sort(group.begin(), group.end());
        expected.insert(expected.end(), group.begin(), group.end());
      }
      ASSERT_EQ(cluster.hosts_in_dc(p, dc), expected);
    }
    cluster.check_invariants();
  };

  std::uint32_t live = n_servers;
  for (int step = 0; step < 200; ++step) {
    const std::uint32_t pv =
        static_cast<std::uint32_t>(rng() % config.partitions);
    const PartitionId p{pv};
    switch (rng() % 5) {
      case 0: {  // replicate: apply on any server that can accept
        const std::uint32_t start = static_cast<std::uint32_t>(rng() %
                                                               n_servers);
        for (std::uint32_t i = 0; i < n_servers; ++i) {
          const ServerId s{(start + i) % n_servers};
          if (cluster.can_accept(s, p)) {
            cluster.add_replica(p, s);
            ref_add(pv, s, false);
            break;
          }
        }
        break;
      }
      case 1: {  // suicide a random non-primary copy
        std::vector<ServerId> removable;
        for (const Replica& r : rows[pv]) {
          if (!r.primary) removable.push_back(r.server);
        }
        if (removable.empty()) break;
        const ServerId victim = removable[rng() % removable.size()];
        cluster.remove_replica(p, victim);
        ref_remove(pv, victim);
        break;
      }
      case 2: {  // promotion (migration's second half)
        if (rows[pv].empty()) break;
        const ServerId target =
            rows[pv][rng() % rows[pv].size()].server;
        cluster.set_primary(p, target);
        ref_set_primary(pv, target);
        break;
      }
      case 3: {  // kill: loss report must match in content and order
        if (live <= n_servers / 2) break;
        std::uint32_t sv = static_cast<std::uint32_t>(rng() % n_servers);
        while (!ref_alive[sv]) sv = (sv + 1) % n_servers;
        const ServerId s{sv};
        std::vector<ClusterState::LostCopy> expected;
        for (std::uint32_t qv = 0; qv < config.partitions; ++qv) {
          const auto& row = rows[qv];
          const auto it =
              std::find_if(row.begin(), row.end(), [s](const Replica& r) {
                return r.server == s;
              });
          if (it != row.end()) {
            expected.push_back(
                ClusterState::LostCopy{PartitionId{qv}, it->primary});
          }
        }
        const std::vector<ClusterState::LostCopy> lost =
            test::kill_one(cluster, s);
        ASSERT_EQ(lost.size(), expected.size());
        for (std::size_t i = 0; i < lost.size(); ++i) {
          EXPECT_EQ(lost[i].partition, expected[i].partition);
          EXPECT_EQ(lost[i].was_primary, expected[i].was_primary);
        }
        ref_alive[sv] = false;
        --live;
        for (const ClusterState::LostCopy& l : expected) {
          ref_remove(l.partition.value(), s);
        }
        for (const ClusterState::LostCopy& l : expected) {
          if (l.was_primary) repromote(l.partition);
        }
        break;
      }
      default: {  // revive a random dead server
        std::vector<std::uint32_t> dead;
        for (std::uint32_t sv = 0; sv < n_servers; ++sv) {
          if (!ref_alive[sv]) dead.push_back(sv);
        }
        if (dead.empty()) break;
        const std::uint32_t sv = dead[rng() % dead.size()];
        cluster.revive_servers(std::array{ServerId{sv}});
        ref_alive[sv] = true;
        ++live;
        break;
      }
    }
    check_agreement();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterReferenceTest,
                         ::testing::Values<std::uint64_t>(2, 19, 777, 31415));

}  // namespace
}  // namespace rfh
