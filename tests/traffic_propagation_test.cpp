// The residual-traffic propagation of Eqs. 2-8, exercised through
// controlled single-partition simulations with degenerate (uniform)
// capacities so every quantity is exactly predictable.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rfh_policy.h"
#include "test_util.h"

namespace rfh {
namespace {

constexpr double kCap = 2.0;  // per-replica capacity everywhere

SimConfig one_partition_config() {
  SimConfig config;
  config.partitions = 1;
  return config;
}

double total_served(const EpochTraffic& traffic, PartitionId p) {
  double sum = 0.0;
  for (std::uint32_t s = 0; s < traffic.servers(); ++s) {
    sum += traffic.served(p, ServerId{s});
  }
  return sum;
}

/// A requester datacenter that is NOT the holder's own.
DatacenterId remote_requester(const Simulation& sim, PartitionId p) {
  const DatacenterId holder_dc =
      sim.topology().server(sim.cluster().primary_of(p)).datacenter;
  for (const Datacenter& dc : sim.topology().datacenters()) {
    if (dc.id != holder_dc &&
        sim.paths().hop_count(dc.id, holder_dc) >= 2) {
      return dc.id;
    }
  }
  return DatacenterId::invalid();
}

TEST(TrafficPropagation, PrimaryAloneAbsorbsUpToCapacity) {
  const PartitionId p{0};
  // Demand 5 > capacity 2: exactly 2 served, 3 blocked.
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, DatacenterId{1}, 5.0}},
      std::make_unique<test::NullPolicy>(), one_partition_config(),
      test::uniform_world_options(kCap));
  // Requester must differ from holder DC for a meaningful route; if it is
  // the holder's DC the numbers below are unchanged anyway.
  sim->step();
  const EpochTraffic& traffic = sim->traffic();
  EXPECT_DOUBLE_EQ(total_served(traffic, p), kCap);
  EXPECT_DOUBLE_EQ(traffic.unserved(p), 5.0 - kCap);
  EXPECT_DOUBLE_EQ(traffic.partition_queries(p), 5.0);
  // The holder sees the full residual (no upstream replicas): tr_ii = 5.
  const ServerId holder = sim->cluster().primary_of(p);
  EXPECT_DOUBLE_EQ(traffic.node_traffic(p, holder), 5.0);
  EXPECT_DOUBLE_EQ(traffic.served(p, holder), kCap);
}

TEST(TrafficPropagation, ConservationAcrossArbitraryEpochs) {
  SimConfig config;
  config.partitions = 8;
  World world = build_paper_world(test::uniform_world_options(kCap));
  WorkloadParams params;
  params.partitions = 8;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      std::move(world), config, std::make_unique<UniformWorkload>(params),
      std::make_unique<test::NullPolicy>());
  for (int e = 0; e < 10; ++e) {
    sim->step();
    const EpochTraffic& traffic = sim->traffic();
    for (std::uint32_t pv = 0; pv < config.partitions; ++pv) {
      const PartitionId p{pv};
      EXPECT_NEAR(total_served(traffic, p) + traffic.unserved(p),
                  traffic.partition_queries(p), 1e-9);
    }
  }
}

TEST(TrafficPropagation, ServedNeverExceedsPerReplicaCapacity) {
  SimConfig config;
  config.partitions = 4;
  World world = build_paper_world(test::uniform_world_options(kCap));
  WorkloadParams params;
  params.partitions = 4;
  params.datacenters = 10;
  params.mean_queries_per_epoch = 800.0;  // heavy overload
  auto sim = std::make_unique<Simulation>(
      std::move(world), config, std::make_unique<UniformWorkload>(params),
      std::make_unique<test::NullPolicy>());
  for (int e = 0; e < 5; ++e) {
    sim->step();
    for (std::uint32_t pv = 0; pv < config.partitions; ++pv) {
      for (std::uint32_t sv = 0; sv < sim->topology().server_count(); ++sv) {
        EXPECT_LE(sim->traffic().served(PartitionId{pv}, ServerId{sv}),
                  kCap + 1e-9);
      }
    }
  }
}

TEST(TrafficPropagation, UpstreamReplicaReducesHolderResidual) {
  // Eq. 2: tr at the holder = max(0, q - sum of upstream capacities).
  const PartitionId p{0};
  SimConfig config = one_partition_config();

  // First, find the route so we can place a replica on a transit DC.
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, test::uniform_world_options(kCap));
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId holder_dc = probe->topology().server(holder).datacenter;
  const DatacenterId requester = remote_requester(*probe, p);
  ASSERT_TRUE(requester.valid());
  const auto dc_path = probe->paths().path(requester, holder_dc);
  ASSERT_GE(dc_path.size(), 3u);
  const DatacenterId transit = dc_path[1];
  const ServerId target = probe->topology().servers_in(transit).front();

  // Now run with a scripted replication onto that transit server.
  Actions epoch0;
  epoch0.replications.push_back(ReplicateAction{p, target, {}});
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, requester, 5.0}},
      std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{epoch0}),
      config, test::uniform_world_options(kCap));
  ASSERT_EQ(sim->cluster().primary_of(p), holder);

  sim->step();  // epoch 0: replica is placed after propagation
  ASSERT_TRUE(sim->cluster().has_replica(p, target));
  sim->step();  // epoch 1: replica absorbs en route

  const EpochTraffic& traffic = sim->traffic();
  EXPECT_DOUBLE_EQ(traffic.served(p, target), kCap);
  // Holder's residual is Eq. 2's max(0, 5 - 2) = 3.
  EXPECT_DOUBLE_EQ(traffic.node_traffic(p, holder), 5.0 - kCap);
  EXPECT_DOUBLE_EQ(traffic.served(p, holder), kCap);
  EXPECT_DOUBLE_EQ(traffic.unserved(p), 5.0 - 2.0 * kCap);
}

TEST(TrafficPropagation, PathLengthShortensWhenReplicaAbsorbsEarly) {
  const PartitionId p{0};
  SimConfig config = one_partition_config();

  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, test::uniform_world_options(kCap));
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId requester = remote_requester(*probe, p);
  ASSERT_TRUE(requester.valid());
  // Replica in the requester's own datacenter: absorbed at hop 1.
  const ServerId target = probe->topology().servers_in(requester).front();

  Actions epoch0;
  epoch0.replications.push_back(ReplicateAction{p, target, {}});
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, requester, 2.0}},  // exactly the replica capacity
      std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{epoch0}),
      config, test::uniform_world_options(kCap));
  ASSERT_EQ(sim->cluster().primary_of(p), holder);

  const EpochReport before = sim->step();
  const EpochReport after = sim->step();
  EXPECT_GT(before.mean_path_length, 1.0);
  EXPECT_DOUBLE_EQ(after.mean_path_length, 1.0);  // all absorbed at entry
  EXPECT_DOUBLE_EQ(sim->traffic().unserved(p), 0.0);
}

TEST(TrafficPropagation, NonPrimariesAbsorbBeforeThePrimary) {
  // A second copy in the holder's own datacenter takes load first, so the
  // primary only sees what is left (Eq. 20's sequential fill).
  const PartitionId p{0};
  SimConfig config = one_partition_config();

  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, test::uniform_world_options(kCap));
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId holder_dc = probe->topology().server(holder).datacenter;
  ServerId sibling;
  for (const ServerId s : probe->topology().servers_in(holder_dc)) {
    if (s != holder) {
      sibling = s;
      break;
    }
  }
  ASSERT_TRUE(sibling.valid());

  Actions epoch0;
  epoch0.replications.push_back(ReplicateAction{p, sibling, {}});
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, holder_dc, 3.0}},
      std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{epoch0}),
      config, test::uniform_world_options(kCap));
  sim->step();
  sim->step();
  // Sibling (non-primary) fills to capacity first; primary takes the rest.
  EXPECT_DOUBLE_EQ(sim->traffic().served(p, sibling), kCap);
  EXPECT_DOUBLE_EQ(sim->traffic().served(p, holder), 1.0);
}

TEST(TrafficPropagation, PrimaryHandoverReordersTheNextAbsorption) {
  // Two copies in the holder's datacenter; the non-primary absorbs
  // first. Handing the primary over keeps the copy set and count, yet
  // reverses that order, so the next step must rebuild the partition's
  // replica plan from set_primary's placement-version move alone. No
  // engine path hands a primary over on its own (a promotion follows
  // the removal of the lost copy, which moves the version itself), so
  // the policy does it from inside decide, between two propagates.
  const PartitionId p{0};
  SimConfig config = one_partition_config();
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, test::uniform_world_options(kCap));
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId holder_dc = probe->topology().server(holder).datacenter;
  ServerId sibling;
  for (const ServerId s : probe->topology().servers_in(holder_dc)) {
    if (s != holder) {
      sibling = s;
      break;
    }
  }
  ASSERT_TRUE(sibling.valid());

  auto policy = test::make_lambda_policy([&](const PolicyContext& ctx) {
    Actions actions;
    if (ctx.epoch == 0) {
      actions.replications.push_back(ReplicateAction{p, sibling, {}});
    } else if (ctx.epoch == 1) {
      // The simulation owns a mutable ClusterState; the context only
      // hands policies a const view of it.
      const_cast<ClusterState&>(ctx.cluster).set_primary(p, sibling);
    }
    return actions;
  });
  auto sim = test::make_fixed_sim({QueryFlow{p, holder_dc, 1.0}},
                                  std::move(policy), config,
                                  test::uniform_world_options(kCap));
  sim->step();
  sim->step();
  EXPECT_DOUBLE_EQ(sim->traffic().served(p, sibling), 1.0);
  EXPECT_DOUBLE_EQ(sim->traffic().served(p, holder), 0.0);
  ASSERT_EQ(sim->cluster().primary_of(p), sibling);
  ASSERT_EQ(sim->cluster().replica_count(p), 2u);
  ASSERT_EQ(sim->cluster().hosts_in_dc(p, holder_dc),
            (std::vector<ServerId>{holder, sibling}));

  sim->step();
  // The old primary is now the non-primary, and absorbs first.
  EXPECT_DOUBLE_EQ(sim->traffic().served(p, holder), 1.0);
  EXPECT_DOUBLE_EQ(sim->traffic().served(p, sibling), 0.0);
}

TEST(TrafficPropagation, RequesterQueriesAreRecordedPerFlow) {
  const PartitionId p{0};
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, DatacenterId{2}, 4.0}, QueryFlow{p, DatacenterId{5}, 6.0}},
      std::make_unique<test::NullPolicy>(), one_partition_config(),
      test::uniform_world_options(kCap));
  sim->step();
  const std::span<const QueryFlow> demand = sim->traffic().demand(p);
  ASSERT_EQ(demand.size(), 2u);
  EXPECT_EQ(demand[0].requester, DatacenterId{2});
  EXPECT_DOUBLE_EQ(demand[0].queries, 4.0);
  EXPECT_EQ(demand[1].requester, DatacenterId{5});
  EXPECT_DOUBLE_EQ(demand[1].queries, 6.0);
  EXPECT_DOUBLE_EQ(sim->traffic().partition_queries(p), 10.0);
  EXPECT_DOUBLE_EQ(sim->traffic().total_queries(), 10.0);
}

TEST(TrafficPropagation, RevisitedPartitionContinuesFromItsEarlierRun) {
  // {P, Q, P} is not in canonical order: set_demand sorts it into one
  // run per partition, so P's two flows share the holder's capacity as
  // if the batch had been sorted — at every jobs value, and with P's
  // second flow split into two equal-key flows that merge back.
  const PartitionId p{0};
  const PartitionId q{1};
  SimConfig config;
  config.partitions = 2;

  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, test::uniform_world_options(kCap));
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId holder_dc = probe->topology().server(holder).datacenter;
  const DatacenterId first = remote_requester(*probe, p);
  ASSERT_TRUE(first.valid());
  DatacenterId second;
  for (const Datacenter& dc : probe->topology().datacenters()) {
    if (dc.id != holder_dc && dc.id != first) {
      second = dc.id;
      break;
    }
  }
  ASSERT_TRUE(second.valid());

  constexpr double kFirst = 1.5;   // under capacity on its own
  constexpr double kSecond = 3.0;  // together with kFirst, over capacity
  const QueryBatch revisited = {
      QueryFlow{p, first, kFirst}, QueryFlow{q, first, 1.0},
      QueryFlow{p, second, kSecond / 2}, QueryFlow{p, second, kSecond / 2}};
  QueryBatch canonical = {QueryFlow{p, first, kFirst},
                          QueryFlow{p, second, kSecond},
                          QueryFlow{q, first, 1.0}};
  if (second.value() < first.value()) std::swap(canonical[0], canonical[1]);

  for (const unsigned jobs : {1u, 4u}) {
    auto sim = test::make_fixed_sim(revisited,
                                    std::make_unique<test::NullPolicy>(),
                                    config, test::uniform_world_options(kCap));
    auto sorted = test::make_fixed_sim(canonical,
                                       std::make_unique<test::NullPolicy>(),
                                       config,
                                       test::uniform_world_options(kCap));
    sim->set_jobs(jobs);
    ASSERT_EQ(sim->cluster().primary_of(p), holder);
    sim->step();
    sorted->step();

    const EpochTraffic& traffic = sim->traffic();
    const std::span<const QueryFlow> demand = traffic.demand(p);
    ASSERT_EQ(demand.size(), 2u) << "jobs " << jobs;
    EXPECT_LT(demand[0].requester.value(), demand[1].requester.value());
    // No copy upstream: both flows reach the holder whole.
    EXPECT_DOUBLE_EQ(traffic.served(p, holder), kCap);
    EXPECT_DOUBLE_EQ(traffic.node_traffic(p, holder), kFirst + kSecond);
    EXPECT_DOUBLE_EQ(traffic.unserved(p), kFirst + kSecond - kCap);
    EXPECT_DOUBLE_EQ(total_served(traffic, p), kCap);
    // Cell for cell what the canonical batch leaves.
    for (const PartitionId part : {p, q}) {
      const std::span<const TrafficCell> got = traffic.cells(part);
      const std::span<const TrafficCell> want = sorted->traffic().cells(part);
      ASSERT_EQ(got.size(), want.size()) << "jobs " << jobs;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].server, want[i].server);
        EXPECT_EQ(got[i].node, want[i].node);
        EXPECT_EQ(got[i].served, want[i].served);
      }
      EXPECT_EQ(traffic.unserved(part), sorted->traffic().unserved(part));
    }
  }
}

TEST(TrafficPropagation, SliceLogIsTheOnlyRecordOfEachDecision) {
  // Every absorption decision is one slice, and the epoch's tallies are
  // read back from the slices in log order: unavailable flows (EC
  // stripes still below k), absorbed slices and blocked residuals all
  // appear, at every jobs value, and attaching the log changes nothing.
  SimConfig config;
  config.partitions = 8;
  std::string error;
  ASSERT_TRUE(parse_redundancy("ec(4,2)", config, error)) << error;
  WorkloadParams params;
  params.partitions = config.partitions;
  params.datacenters = 10;
  params.mean_queries_per_epoch = 400.0;  // beyond the copies' capacity
  const auto make = [&] {
    return std::make_unique<Simulation>(
        build_paper_world(test::uniform_world_options(kCap)), config,
        std::make_unique<UniformWorkload>(params),
        std::make_unique<RfhPolicy>());
  };
  for (const unsigned jobs : {1u, 4u}) {
    auto logged = make();
    auto bare = make();
    logged->set_jobs(jobs);
    bare->set_jobs(jobs);
    FlowLog log;
    logged->set_flow_log(&log);
    bool unavailable = false;
    bool absorbed = false;
    bool blocked = false;
    for (int e = 0; e < 30; ++e) {
      const EpochReport report = logged->step();
      bare->step();
      const EpochTraffic& traffic = logged->traffic();

      double queries = 0.0;
      double routed = 0.0;
      double hops_weighted = 0.0;
      std::vector<double> unserved(config.partitions, 0.0);
      for (const FlowSegment& slice : log.segments()) {
        queries += slice.queries;
        if (!slice.server.valid()) {
          unserved[slice.partition.value()] += slice.queries;
        }
        if (slice.latency_ms >= 0.0) {
          routed += slice.queries;
          hops_weighted += slice.queries * static_cast<double>(slice.hops);
        }
        unavailable = unavailable || slice.latency_ms < 0.0;
        absorbed = absorbed || slice.server.valid();
        blocked = blocked || (!slice.server.valid() && slice.latency_ms >= 0.0);
      }
      EXPECT_NEAR(queries, traffic.total_queries(),
                  1e-9 * traffic.total_queries())
          << "jobs " << jobs << " epoch " << e;
      double unserved_sum = 0.0;
      for (std::uint32_t pv = 0; pv < config.partitions; ++pv) {
        EXPECT_EQ(unserved[pv], traffic.unserved(PartitionId{pv}));
        unserved_sum += unserved[pv];
      }
      EXPECT_EQ(unserved_sum, report.unserved_queries);
      EXPECT_EQ(routed > 0.0 ? hops_weighted / routed : 0.0,
                report.mean_path_length);
      EXPECT_EQ(routed, traffic.latency().total_weight());

      // The bare twin, stepped without a log, tallies the same bits.
      const EpochTraffic& twin = bare->traffic();
      EXPECT_EQ(twin.total_queries(), traffic.total_queries());
      EXPECT_EQ(twin.mean_path_length(), traffic.mean_path_length());
      EXPECT_EQ(twin.latency().total_weight(), traffic.latency().total_weight());
      EXPECT_EQ(twin.latency().mean(), traffic.latency().mean());
      EXPECT_EQ(twin.latency().max_value(), traffic.latency().max_value());
      for (std::uint32_t pv = 0; pv < config.partitions; ++pv) {
        const PartitionId p{pv};
        EXPECT_EQ(twin.unserved(p), traffic.unserved(p));
        const std::span<const TrafficCell> got = traffic.cells(p);
        const std::span<const TrafficCell> want = twin.cells(p);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].server, want[i].server);
          EXPECT_EQ(got[i].node, want[i].node);
          EXPECT_EQ(got[i].served, want[i].served);
        }
      }
      for (std::uint32_t sv = 0; sv < traffic.servers(); ++sv) {
        EXPECT_EQ(twin.server_work(ServerId{sv}),
                  traffic.server_work(ServerId{sv}));
      }
    }
    EXPECT_TRUE(unavailable) << "jobs " << jobs;
    EXPECT_TRUE(absorbed) << "jobs " << jobs;
    EXPECT_TRUE(blocked) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace rfh
