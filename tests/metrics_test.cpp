#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/mathutil.h"
#include "core/rfh_policy.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "metrics/collector.h"
#include "metrics/csv.h"
#include "metrics/diversity.h"
#include "test_util.h"

namespace rfh {
namespace {

constexpr double kCap = 2.0;

/// One epoch's metrics, as run_policy collects them.
EpochMetrics step_and_collect(Simulation& sim) {
  const EpochReport report = sim.step();
  return MetricsCollector().collect(sim, report);
}

TEST(Utilization, ZeroWithoutCopies) {
  SimConfig config;
  config.partitions = 2;
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                  config, test::uniform_world_options(kCap));
  // Only primaries exist, and utilization leaves them out: there is
  // nothing to average over.
  EXPECT_DOUBLE_EQ(step_and_collect(*sim).utilization, 0.0);
}

TEST(Utilization, SaturatedReplicaScoresOne) {
  SimConfig config;
  config.partitions = 1;
  const PartitionId p{0};
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
  Actions e0;
  e0.replications.push_back(ReplicateAction{p, sibling, {}});
  auto sim = test::make_fixed_sim(
      {QueryFlow{p, holder_dc, 10.0}},
      std::make_unique<test::ScriptedPolicy>(std::vector<Actions>{e0}),
      config, test::uniform_world_options(kCap));
  sim->step();
  // The non-primary sibling absorbs its full capacity -> utilization 1.
  EXPECT_DOUBLE_EQ(step_and_collect(*sim).utilization, 1.0);
  EXPECT_GE(sim->traffic().served(p, sibling), kCap);
  // The primary is saturated too, so counting it would not change that.
  EXPECT_GE(sim->traffic().served(p, holder), kCap);
}

TEST(Utilization, AlwaysWithinUnitInterval) {
  SimConfig config;
  config.partitions = 8;
  WorkloadParams params;
  params.partitions = 8;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(), config, std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  for (int e = 0; e < 30; ++e) {
    const double u = step_and_collect(*sim).utilization;
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Imbalance, ZeroForPerfectlyEvenCopies) {
  // Two copies in the holder's datacenter splitting demand equally is not
  // achievable exactly (sequential fill), so test the degenerate case:
  // all copies idle -> stddev 0.
  SimConfig config;
  config.partitions = 4;
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                  config, test::uniform_world_options(kCap));
  EXPECT_DOUBLE_EQ(step_and_collect(*sim).load_imbalance, 0.0);
}

TEST(Imbalance, SkewedServingRaisesTheStatistic) {
  SimConfig config;
  config.partitions = 2;
  const PartitionId hot{0};
  auto sim = test::make_fixed_sim({QueryFlow{hot, DatacenterId{4}, 2.0}},
                                  std::make_unique<test::NullPolicy>(),
                                  config, test::uniform_world_options(kCap));
  // One primary saturated, one idle: nonzero spread.
  EXPECT_GT(step_and_collect(*sim).load_imbalance, 0.0);
}

TEST(Collector, FieldsAreConsistentWithTheSimulation) {
  SimConfig config;
  config.partitions = 8;
  WorkloadParams params;
  params.partitions = 8;
  params.datacenters = 10;
  auto sim = std::make_unique<Simulation>(
      build_paper_world(), config, std::make_unique<UniformWorkload>(params),
      std::make_unique<RfhPolicy>());
  MetricsCollector collector;
  PolicyRun run;
  std::uint32_t last_migrations = 0;
  double last_cost = 0.0;
  for (int e = 0; e < 40; ++e) {
    const EpochReport report = sim->step();
    const EpochMetrics m = collector.collect(*sim, report);
    run.series.push_back(m);
    EXPECT_EQ(m.epoch, report.epoch);
    EXPECT_EQ(m.total_replicas, sim->cluster().total_replicas());
    EXPECT_NEAR(m.avg_replicas_per_partition, m.total_replicas / 8.0, 1e-12);
    // Cumulative series are monotone.
    EXPECT_GE(m.migrations_total, last_migrations);
    EXPECT_GE(m.replication_cost_total, last_cost - 1e-12);
    last_migrations = m.migrations_total;
    last_cost = m.replication_cost_total;
    if (m.migrations_total > 0) {
      EXPECT_NEAR(m.migration_cost_avg,
                  m.migration_cost_total / m.migrations_total, 1e-9);
    }
  }
  EXPECT_EQ(run.series.size(), 40u);
  EXPECT_GT(tail_mean(run, &EpochMetrics::utilization, 10), 0.0);
}

// The collector's single pass against the separate whole-cluster scans
// it replaced, computed here from replicas_of, served,
// partition_diversity_level and the latency histogram. Every field must
// match bit for bit, under churn, for every policy and for ec(4,2).
TEST(Collector, OnePassEqualsSeparateScansBitForBit) {
  struct Case {
    PolicyKind kind;
    const char* redundancy;
  };
  const Case cases[] = {{PolicyKind::kRequest, "replica"},
                        {PolicyKind::kOwner, "replica"},
                        {PolicyKind::kRandom, "replica"},
                        {PolicyKind::kRfh, "replica"},
                        {PolicyKind::kRfh, "ec(4,2)"}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(policy_name(c.kind)) + " " + c.redundancy);
    Scenario scenario = Scenario::paper_random_query();
    std::string error;
    ASSERT_TRUE(parse_redundancy(c.redundancy, scenario.sim, error)) << error;
    const auto sim = make_simulation(scenario, c.kind);
    const ClusterState& cluster = sim->cluster();
    const Topology& topology = sim->topology();
    const EpochTraffic& traffic = sim->traffic();
    const std::uint32_t partitions = scenario.sim.partitions;
    MetricsCollector collector;
    std::vector<ServerId> down;
    for (int e = 0; e < 60; ++e) {
      // Churn: three servers go down every ten epochs and come back
      // five epochs later.
      if (e % 10 == 3) down = test::crash_now(*sim, 3);
      if (e % 10 == 8) sim->recover_servers(down);
      const EpochReport report = sim->step();
      const EpochMetrics m = collector.collect(*sim, report);

      double utilization = 0.0;
      std::size_t replicas = 0;
      std::vector<double> loads;
      for (std::uint32_t pv = 0; pv < partitions; ++pv) {
        for (const Replica& r : cluster.replicas_of(PartitionId{pv})) {
          loads.push_back(traffic.served(PartitionId{pv}, r.server));
          if (r.primary) continue;
          const double cap =
              topology.server(r.server).spec.per_replica_capacity;
          utilization += std::clamp(
              traffic.served(PartitionId{pv}, r.server) / cap, 0.0, 1.0);
          ++replicas;
        }
      }
      if (replicas > 0) utilization /= static_cast<double>(replicas);
      double level_sum = 0.0;
      for (std::uint32_t pv = 0; pv < partitions; ++pv) {
        level_sum +=
            partition_diversity_level(cluster, topology, PartitionId{pv});
      }
      std::uint32_t survivable = 0;
      for (std::uint32_t pv = 0; pv < partitions; ++pv) {
        if (partition_diversity_level(cluster, topology, PartitionId{pv}) ==
            5) {
          ++survivable;
        }
      }
      const Histogram& latency = traffic.latency();
      const auto quantile = [&latency](double q) {
        return latency.empty() ? 0.0 : latency.percentile(q);
      };

      EXPECT_EQ(m.utilization, utilization) << "epoch " << e;
      EXPECT_EQ(m.load_imbalance, coefficient_of_variation(loads));
      EXPECT_EQ(m.diversity_level, level_sum / partitions);
      EXPECT_EQ(m.dc_survivable_fraction,
                static_cast<double>(survivable) / partitions);
      EXPECT_EQ(m.latency_mean_ms, latency.mean());
      EXPECT_EQ(m.latency_p50_ms, quantile(0.5));
      EXPECT_EQ(m.latency_p99_ms, quantile(0.99));
      EXPECT_EQ(m.latency_p999_ms, quantile(0.999));
    }
  }
}

TEST(Collector, TailMeanHandlesShortSeries) {
  PolicyRun run;
  EXPECT_DOUBLE_EQ(tail_mean(run, &EpochMetrics::utilization, 10), 0.0);
  run.series.resize(3);
  run.series[1].utilization = 0.25;
  run.series[2].utilization = 0.75;
  EXPECT_DOUBLE_EQ(tail_mean(run, &EpochMetrics::utilization, 10), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(tail_mean(run, &EpochMetrics::utilization, 2), 0.5);
}

TEST(Csv, ExtractPullsTheRightField) {
  std::vector<EpochMetrics> series(3);
  series[0].path_length = 1.0;
  series[1].path_length = 2.0;
  series[2].path_length = 3.0;
  series[1].total_replicas = 7;
  const auto path = extract(series, &EpochMetrics::path_length);
  EXPECT_EQ(path, (std::vector<double>{1.0, 2.0, 3.0}));
  const auto replicas = extract_u32(series, &EpochMetrics::total_replicas);
  EXPECT_EQ(replicas, (std::vector<double>{0.0, 7.0, 0.0}));
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  write_csv(out, {NamedSeries{"A", {1.0, 2.0}}, NamedSeries{"B", {3.0}}});
  const std::string text = out.str();
  EXPECT_NE(text.find("epoch,A,B"), std::string::npos);
  EXPECT_NE(text.find("0,1.0000,3.0000"), std::string::npos);
  // Ragged series leave the missing cell empty.
  EXPECT_NE(text.find("1,2.0000,"), std::string::npos);
}

}  // namespace
}  // namespace rfh
