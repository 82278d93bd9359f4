#include "consistency/tracker.h"

#include <gtest/gtest.h>

#include <memory>

#include "harness/report.h"
#include "harness/runner.h"
#include "test_util.h"

namespace rfh {
namespace {

// A minimal fixture giving the tracker a live cluster + paths to chew on.
class TrackerTest : public ::testing::Test {
 protected:
  TrackerTest()
      : world_(build_paper_world(test::uniform_world_options())),
        graph_(world_.topology.datacenter_count(), world_.links),
        paths_(graph_) {
    config_.partitions = 2;
    cluster_ = std::make_unique<ClusterState>(world_.topology, config_);
    tracker_ = std::make_unique<ConsistencyTracker>(
        config_.partitions,
        static_cast<std::uint32_t>(world_.topology.server_count()));
  }

  void advance(std::vector<double> writes) {
    tracker_->advance(*cluster_, world_.topology, paths_, writes);
  }

  /// A server in a datacenter exactly `hops` DC-hops from `from`.
  ServerId server_at_hops(ServerId from, std::uint32_t hops) {
    const DatacenterId home = world_.topology.server(from).datacenter;
    for (const Datacenter& dc : world_.topology.datacenters()) {
      if (paths_.hop_count(home, dc.id) == hops) {
        return world_.topology.servers_in(dc.id).front();
      }
    }
    return ServerId::invalid();
  }

  World world_;
  DcGraph graph_;
  ShortestPaths paths_;
  SimConfig config_;
  std::unique_ptr<ClusterState> cluster_;
  std::unique_ptr<ConsistencyTracker> tracker_;
};

TEST_F(TrackerTest, WritesAdvanceThePrimaryImmediately) {
  const PartitionId p{0};
  cluster_->add_replica(p, ServerId{0}, /*primary=*/true);
  advance({5.0, 0.0});
  EXPECT_DOUBLE_EQ(tracker_->primary_version(p), 5.0);
  EXPECT_DOUBLE_EQ(tracker_->lag(p, ServerId{0}), 0.0);
  advance({3.0, 0.0});
  EXPECT_DOUBLE_EQ(tracker_->primary_version(p), 8.0);
}

TEST_F(TrackerTest, ReplicaLagsByItsHopDistance) {
  const PartitionId p{0};
  const ServerId primary{0};
  cluster_->add_replica(p, primary, /*primary=*/true);
  const ServerId remote = server_at_hops(primary, 2);
  ASSERT_TRUE(remote.valid());
  cluster_->add_replica(p, remote);

  // Constant write stream of 4/epoch: a copy 2 hops away converges to a
  // steady lag of 2 epochs x 4 writes = 8 versions.
  for (int e = 0; e < 12; ++e) advance({4.0, 0.0});
  EXPECT_NEAR(tracker_->lag(p, remote), 8.0, 1e-9);

  // Same-datacenter copies still lag one anti-entropy epoch.
  ServerId sibling;
  for (const ServerId s :
       world_.topology.servers_in(world_.topology.server(primary).datacenter)) {
    if (s != primary) {
      sibling = s;
      break;
    }
  }
  cluster_->add_replica(p, sibling);
  for (int e = 0; e < 4; ++e) advance({4.0, 0.0});
  EXPECT_NEAR(tracker_->lag(p, sibling), 4.0, 1e-9);
}

TEST_F(TrackerTest, ReplicasConvergeWhenWritesStop) {
  const PartitionId p{0};
  cluster_->add_replica(p, ServerId{0}, /*primary=*/true);
  const ServerId remote = server_at_hops(ServerId{0}, 2);
  ASSERT_TRUE(remote.valid());
  cluster_->add_replica(p, remote);
  for (int e = 0; e < 10; ++e) advance({4.0, 0.0});
  EXPECT_GT(tracker_->lag(p, remote), 0.0);
  for (int e = 0; e < 5; ++e) advance({0.0, 0.0});
  EXPECT_DOUBLE_EQ(tracker_->lag(p, remote), 0.0);
  EXPECT_DOUBLE_EQ(tracker_->mean_replica_lag(*cluster_), 0.0);
}

TEST_F(TrackerTest, VersionsNeverRegress) {
  const PartitionId p{0};
  cluster_->add_replica(p, ServerId{0}, /*primary=*/true);
  const ServerId remote = server_at_hops(ServerId{0}, 2);
  cluster_->add_replica(p, remote);
  double last = 0.0;
  for (int e = 0; e < 20; ++e) {
    advance({e % 3 == 0 ? 7.0 : 0.0, 0.0});
    const double v = tracker_->replica_version(p, remote);
    EXPECT_GE(v, last);
    last = v;
  }
}

TEST_F(TrackerTest, PromotionAccountsLostWrites) {
  const PartitionId p{0};
  const ServerId primary{0};
  cluster_->add_replica(p, primary, /*primary=*/true);
  const ServerId remote = server_at_hops(primary, 2);
  cluster_->add_replica(p, remote);
  for (int e = 0; e < 10; ++e) advance({4.0, 0.0});
  const double lag = tracker_->lag(p, remote);
  ASSERT_GT(lag, 0.0);

  const double lost = tracker_->on_promote(p, remote);
  EXPECT_DOUBLE_EQ(lost, lag);
  EXPECT_DOUBLE_EQ(tracker_->lost_writes(), lag);
  // The survivor's version is now the partition version: no residual lag,
  // and the discarded writes never reappear.
  EXPECT_DOUBLE_EQ(tracker_->lag(p, remote), 0.0);
  cluster_->set_primary(p, remote);
  cluster_->remove_replica(p, primary);
  tracker_->on_server_failed(primary);
  for (int e = 0; e < 5; ++e) advance({0.0, 0.0});
  EXPECT_DOUBLE_EQ(tracker_->primary_version(p),
                   tracker_->replica_version(p, remote));
}

TEST_F(TrackerTest, StaleReadFractionCountsLaggingServes) {
  const PartitionId p{0};
  const ServerId primary{0};
  cluster_->add_replica(p, primary, /*primary=*/true);
  const ServerId remote = server_at_hops(primary, 2);
  cluster_->add_replica(p, remote);
  for (int e = 0; e < 10; ++e) advance({4.0, 0.0});

  EpochTraffic traffic(config_.partitions, world_.topology.server_count(),
                       world_.topology.datacenter_count());
  traffic.served_mut(p, primary) = 3.0;   // fresh reads
  traffic.served_mut(p, remote) = 1.0;    // stale reads
  EXPECT_NEAR(tracker_->stale_read_fraction(traffic, *cluster_), 0.25, 1e-9);
  // With a tolerance above the actual lag, nothing counts as stale.
  EXPECT_DOUBLE_EQ(
      tracker_->stale_read_fraction(traffic, *cluster_, /*tolerance=*/100.0),
      0.0);
}

TEST(ConsistencyRunner, WriteWorkloadProducesLagMetrics) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 60;
  scenario.write_fraction = 0.2;
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  // Writes flow, replicas exist, so some lag and some stale reads appear.
  EXPECT_GT(tail_mean(run, &EpochMetrics::mean_replica_lag, 20), 0.0);
  const double stale = tail_mean(run, &EpochMetrics::stale_read_fraction, 20);
  EXPECT_GT(stale, 0.0);
  EXPECT_LE(stale, 1.0);
  // No failures: no lost writes.
  EXPECT_DOUBLE_EQ(run.series.back().lost_writes_total, 0.0);
}

TEST(ConsistencyRunner, DisabledByDefault) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 10;
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  EXPECT_DOUBLE_EQ(run.series.back().mean_replica_lag, 0.0);
  EXPECT_DOUBLE_EQ(run.series.back().stale_read_fraction, 0.0);
}

TEST(ConsistencyRunner, FailoverUnderWritesLosesSomeWrites) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 100;
  scenario.write_fraction = 0.3;
  scenario.fault_plan = test::crash_plan(60, 30);
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  // Killing 30 servers mid-write-stream promotes lagging survivors.
  EXPECT_GT(run.series.back().lost_writes_total, 0.0);
  // Lost writes are cumulative and only move at the failure epoch.
  EXPECT_DOUBLE_EQ(run.series[30].lost_writes_total, 0.0);
  EXPECT_DOUBLE_EQ(run.series[70].lost_writes_total,
                   run.series.back().lost_writes_total);
}

}  // namespace
}  // namespace rfh
