#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/rfh_policy.h"
#include "harness/report.h"
#include "metrics/collector.h"
#include "metrics/csv.h"
#include "metrics/imbalance.h"
#include "metrics/utilization.h"
#include "test_util.h"

namespace rfh {
namespace {

constexpr double kCap = 2.0;

TEST(Utilization, ZeroWithoutCopies) {
  SimConfig config;
  config.partitions = 2;
  auto sim = test::make_fixed_sim({}, std::make_unique<test::NullPolicy>(),
                                  config, test::uniform_world_options(kCap));
  sim->step();
  // Only primaries exist; with include_primaries=false there is nothing
  // to average over.
  EXPECT_DOUBLE_EQ(
      replica_utilization(sim->traffic(), sim->cluster(), sim->topology()),
      0.0);
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
  sim->step();
  // The non-primary sibling absorbs its full capacity -> utilization 1.
  EXPECT_DOUBLE_EQ(copy_utilization(sim->traffic(), sim->topology(), p,
                                    sibling),
                   1.0);
  EXPECT_DOUBLE_EQ(
      replica_utilization(sim->traffic(), sim->cluster(), sim->topology()),
      1.0);
  // Including primaries averages in the saturated holder too.
  UtilizationOptions with_primaries;
  with_primaries.include_primaries = true;
  EXPECT_DOUBLE_EQ(replica_utilization(sim->traffic(), sim->cluster(),
                                       sim->topology(), with_primaries),
                   1.0);
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
    sim->step();
    const double u =
        replica_utilization(sim->traffic(), sim->cluster(), sim->topology());
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
  sim->step();
  EXPECT_DOUBLE_EQ(load_imbalance(sim->traffic(), sim->cluster()), 0.0);
  EXPECT_DOUBLE_EQ(load_imbalance_cv(sim->traffic(), sim->cluster()), 0.0);
}

TEST(Imbalance, SkewedServingRaisesTheStatistic) {
  SimConfig config;
  config.partitions = 2;
  const PartitionId hot{0};
  auto sim = test::make_fixed_sim({QueryFlow{hot, DatacenterId{4}, 2.0}},
                                  std::make_unique<test::NullPolicy>(),
                                  config, test::uniform_world_options(kCap));
  sim->step();
  // One primary saturated, one idle: nonzero spread.
  EXPECT_GT(load_imbalance(sim->traffic(), sim->cluster()), 0.0);
  EXPECT_GT(load_imbalance_servers(sim->traffic(), sim->cluster()), 0.0);
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
