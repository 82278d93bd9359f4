// The latency model end to end: route latencies, per-epoch histograms,
// and the SLA attainment metric.
#include <gtest/gtest.h>

#include <memory>

#include "metrics/collector.h"
#include "test_util.h"

namespace rfh {
namespace {

constexpr double kCap = 2.0;

TEST(Latency, RouteLatencyGrowsWithHopsAndDistance) {
  const World world = build_paper_world();
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  const ShortestPaths paths(graph);
  const Router router(world.topology, paths, /*partitions=*/1);
  std::vector<std::vector<ServerId>> live(world.topology.datacenter_count());
  for (const Server& s : world.topology.servers()) {
    live[s.datacenter.value()].push_back(s.id);
  }
  const ServerId holder = world.topology.servers_in(world.by_letter('A'))[0];

  const test::WalkedRoute local =
      test::walk_route(router, PartitionId{0}, world.by_letter('A'), holder,
                       live);
  const test::WalkedRoute remote =
      test::walk_route(router, PartitionId{0}, world.by_letter('J'), holder,
                       live);
  // Local query: entry + descent switching only (no fibre distance).
  EXPECT_NEAR(local.total_latency_ms, 2.0 * kHopLatencyMs, 1e-9);
  // Remote query pays fibre propagation: Osaka->Atlanta is > 10000 km.
  EXPECT_GT(remote.total_latency_ms, 10000.0 / kFibreKmPerMs);
  // Stage latencies are nondecreasing along the route.
  for (std::size_t i = 1; i < remote.stages.size(); ++i) {
    EXPECT_GE(remote.stages[i].latency_ms, remote.stages[i - 1].latency_ms);
  }
  EXPECT_GT(remote.total_latency_ms, remote.stages.back().latency_ms);
}

TEST(Latency, ServedQueriesRecordAbsorptionLatency) {
  SimConfig config;
  config.partitions = 1;
  const PartitionId p{0};
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{1}, 1.0}},
                                  std::make_unique<test::NullPolicy>(),
                                  config, test::uniform_world_options(kCap));
  sim->step();
  const Histogram& latency = sim->traffic().latency();
  EXPECT_DOUBLE_EQ(latency.total_weight(), 1.0);
  EXPECT_GT(latency.mean(), 0.0);
  // One query fully served by the primary: latency well under the
  // blocked penalty.
  EXPECT_LT(latency.mean(), kBlockedPenaltyMs);
}

TEST(Latency, BlockedQueriesPayThePenalty) {
  SimConfig config;
  config.partitions = 1;
  const PartitionId p{0};
  // Demand 10 against capacity 2: 8 blocked queries at penalty latency.
  auto sim = test::make_fixed_sim({QueryFlow{p, DatacenterId{1}, 10.0}},
                                  std::make_unique<test::NullPolicy>(),
                                  config, test::uniform_world_options(kCap));
  sim->step();
  const Histogram& latency = sim->traffic().latency();
  EXPECT_DOUBLE_EQ(latency.total_weight(), 10.0);
  EXPECT_GT(latency.percentile(0.9), kBlockedPenaltyMs);
  // 2 of 10 served within SLA, 8 blocked.
  EXPECT_NEAR(latency.fraction_at_or_below(kSlaTargetMs), 0.2, 0.02);
}

TEST(Latency, NearbyReplicaCutsLatency) {
  SimConfig config;
  config.partitions = 1;
  const PartitionId p{0};
  auto probe = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                    config, test::uniform_world_options(kCap));
  const ServerId holder = probe->cluster().primary_of(p);
  const DatacenterId holder_dc = probe->topology().server(holder).datacenter;
  DatacenterId requester;
  double best = -1.0;
  for (const Datacenter& dc : probe->topology().datacenters()) {
    const double d = probe->topology().distance_km(dc.id, holder_dc);
    if (d > best) {
      best = d;
      requester = dc.id;  // farthest requester
    }
  }
  const ServerId target = probe->topology().servers_in(requester).front();

  Actions e0;
  e0.replications.push_back(ReplicateAction{p, target, {}});
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, requester, 2.0}},
      std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{e0}),
      config, test::uniform_world_options(kCap));
  sim->step();
  const double before = sim->traffic().latency().mean();
  sim->step();
  const double after = sim->traffic().latency().mean();
  EXPECT_LT(after, before / 2.0);  // absorbed at the requester's doorstep
}

TEST(Latency, CollectorExposesPercentilesAndSla) {
  SimConfig config;
  config.partitions = 4;
  WorkloadParams params;
  params.partitions = 4;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(), config, std::make_unique<UniformWorkload>(params),
      std::make_unique<test::NullPolicy>());
  MetricsCollector collector;
  for (int e = 0; e < 5; ++e) {
    const EpochReport report = sim->step();
    const EpochMetrics m = collector.collect(*sim, report);
    EXPECT_GE(m.latency_p50_ms, 0.0);
    EXPECT_LE(m.latency_p50_ms, m.latency_p99_ms);
    EXPECT_LE(m.latency_p99_ms, m.latency_p999_ms + 1e-9);
    EXPECT_GE(m.sla_attainment, 0.0);
    EXPECT_LE(m.sla_attainment, 1.0);
    EXPECT_GT(m.latency_mean_ms, 0.0);
  }
}

TEST(Latency, SlaReadsZeroWhenEveryQueryIsUnavailable) {
  // ec(4,2) with a policy that never repairs: every stripe keeps only its
  // primary fragment, below k, so every query is unavailable and the
  // latency histogram stays empty. None of those queries met the SLA.
  SimConfig config;
  config.partitions = 2;
  config.redundancy = RedundancyMode::kErasure;
  config.ec_k = 4;
  config.ec_m = 2;
  auto sim = test::make_fixed_sim(
      {QueryFlow{PartitionId{0}, DatacenterId{1}, 3.0},
       QueryFlow{PartitionId{1}, DatacenterId{4}, 2.0}},
      std::make_unique<test::NullPolicy>(), config);
  MetricsCollector collector;
  for (int e = 0; e < 3; ++e) {
    const EpochReport report = sim->step();
    ASSERT_GT(report.total_queries, 0.0);
    EXPECT_EQ(report.unserved_queries, report.total_queries);
    EXPECT_TRUE(sim->traffic().latency().empty());
    EXPECT_EQ(collector.collect(*sim, report).sla_attainment, 0.0);
  }
}

TEST(Latency, SlaOfAnIdleEpochIsUnchanged) {
  // No queries at all: nothing was refused service, and the empty
  // histogram's fraction stands.
  SimConfig config;
  config.partitions = 1;
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                  config);
  const EpochReport report = sim->step();
  EXPECT_EQ(report.total_queries, 0.0);
  EXPECT_EQ(MetricsCollector{}.collect(*sim, report).sla_attainment,
            sim->traffic().latency().fraction_at_or_below(kSlaTargetMs));
}

}  // namespace
}  // namespace rfh
