#include "sim/stats.h"

#include <gtest/gtest.h>

namespace rfh {
namespace {

constexpr std::size_t kPartitions = 4;
constexpr std::size_t kServers = 6;
constexpr std::size_t kDatacenters = 3;

EpochTraffic make_traffic() {
  return EpochTraffic(kPartitions, kServers, kDatacenters);
}

TEST(TrafficStats, FirstUpdateInitializesDirectly) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EXPECT_FALSE(stats.initialized());

  EpochTraffic traffic = make_traffic();
  traffic.partition_queries_mut(PartitionId{0}) = 30.0;
  traffic.node_traffic_mut(PartitionId{0}, ServerId{2}) = 12.0;
  traffic.requester_queries_mut(PartitionId{0}, DatacenterId{1}) = 7.0;
  traffic.server_work_mut(ServerId{2}) = 9.0;
  stats.update(traffic);

  EXPECT_TRUE(stats.initialized());
  // q_bar is the per-requester average: 30 / 3 datacenters.
  EXPECT_DOUBLE_EQ(stats.avg_query(PartitionId{0}), 10.0);
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{0}, ServerId{2}), 12.0);
  EXPECT_DOUBLE_EQ(stats.requester_queries(PartitionId{0}, DatacenterId{1}),
                   7.0);
  EXPECT_DOUBLE_EQ(stats.server_arrival(ServerId{2}), 9.0);
}

TEST(TrafficStats, EwmaFollowsPaperOrientation) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EpochTraffic traffic = make_traffic();
  traffic.node_traffic_mut(PartitionId{1}, ServerId{0}) = 10.0;
  stats.update(traffic);

  traffic.reset();
  traffic.node_traffic_mut(PartitionId{1}, ServerId{0}) = 0.0;
  stats.update(traffic);
  // v = 0.2 * 10 + 0.8 * 0 (Eq. 11, alpha weights history).
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{1}, ServerId{0}), 2.0);

  traffic.reset();
  traffic.node_traffic_mut(PartitionId{1}, ServerId{0}) = 5.0;
  stats.update(traffic);
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{1}, ServerId{0}),
                   0.2 * 2.0 + 0.8 * 5.0);
}

TEST(TrafficStats, FlippedOrientationWeightsTheNewSample) {
  // alpha_weights_history = false: v = (1-alpha)*v_old + alpha*x, so
  // alpha = 0.2 smooths strongly instead of adapting fast.
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2,
                     /*alpha_weights_history=*/false);
  EpochTraffic traffic = make_traffic();
  traffic.node_traffic_mut(PartitionId{1}, ServerId{0}) = 10.0;
  stats.update(traffic);
  traffic.reset();
  traffic.node_traffic_mut(PartitionId{1}, ServerId{0}) = 0.0;
  stats.update(traffic);
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{1}, ServerId{0}),
                   0.8 * 10.0);
}

TEST(TrafficStats, MeanNodeTrafficMatchesEq17) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.5);
  EpochTraffic traffic = make_traffic();
  traffic.node_traffic_mut(PartitionId{2}, ServerId{0}) = 6.0;
  traffic.node_traffic_mut(PartitionId{2}, ServerId{3}) = 4.0;
  stats.update(traffic);
  // Sum 10 over 5 live servers.
  EXPECT_DOUBLE_EQ(stats.mean_node_traffic(PartitionId{2}, 5), 2.0);
  EXPECT_DOUBLE_EQ(stats.mean_node_traffic(PartitionId{2}, 0), 0.0);
}

TEST(TrafficStats, SeriesAreIndependentPerPartitionAndServer) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EpochTraffic traffic = make_traffic();
  traffic.node_traffic_mut(PartitionId{0}, ServerId{0}) = 3.0;
  stats.update(traffic);
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{0}, ServerId{1}), 0.0);
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{1}, ServerId{0}), 0.0);
}

TEST(TrafficStats, ConvergesToSteadyInput) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EpochTraffic traffic = make_traffic();
  traffic.partition_queries_mut(PartitionId{3}) = 21.0;
  for (int i = 0; i < 50; ++i) stats.update(traffic);
  EXPECT_NEAR(stats.avg_query(PartitionId{3}), 7.0, 1e-9);
}

TEST(TrafficStats, ClearServerForgetsAllSeries) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EpochTraffic traffic = make_traffic();
  traffic.node_traffic_mut(PartitionId{0}, ServerId{2}) = 12.0;
  traffic.node_traffic_mut(PartitionId{1}, ServerId{2}) = 4.0;
  traffic.node_traffic_mut(PartitionId{0}, ServerId{3}) = 6.0;
  traffic.server_work_mut(ServerId{2}) = 16.0;
  stats.update(traffic);

  const ServerId victim[] = {ServerId{2}};
  stats.clear_servers(victim);
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{0}, ServerId{2}), 0.0);
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{1}, ServerId{2}), 0.0);
  EXPECT_DOUBLE_EQ(stats.server_arrival(ServerId{2}), 0.0);
  // Other servers' series are untouched.
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{0}, ServerId{3}), 6.0);
}

TEST(TrafficStats, ClearServerRebalancesEq17Mean) {
  // The dead server's tr-bar must leave the Eq. 17 numerator at the same
  // time the live count leaves its denominator — otherwise stale traffic
  // inflates the mean for many epochs after a failure.
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EpochTraffic traffic = make_traffic();
  traffic.node_traffic_mut(PartitionId{0}, ServerId{1}) = 30.0;
  traffic.node_traffic_mut(PartitionId{0}, ServerId{4}) = 10.0;
  stats.update(traffic);
  EXPECT_DOUBLE_EQ(stats.mean_node_traffic(PartitionId{0}, kServers),
                   40.0 / kServers);

  const ServerId victim[] = {ServerId{1}};
  stats.clear_servers(victim);
  EXPECT_DOUBLE_EQ(stats.mean_node_traffic(PartitionId{0}, kServers - 1),
                   10.0 / (kServers - 1));
}

TEST(TrafficStats, ClearServersBatchEqualsOneAtATime) {
  // One pass over the partitions for a whole failure wave leaves exactly
  // the state that clearing the victims one call at a time leaves,
  // including the re-summed Eq. 17 numerators.
  EpochTraffic traffic = make_traffic();
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    for (std::uint32_t s = 0; s < kServers; ++s) {
      traffic.node_traffic_mut(PartitionId{p}, ServerId{s}) =
          0.1 * (p + 1) + 0.37 * s;
    }
  }
  TrafficStats batch(kPartitions, kServers, kDatacenters, 0.2);
  TrafficStats single(kPartitions, kServers, kDatacenters, 0.2);
  batch.update(traffic);
  single.update(traffic);
  const ServerId victims[] = {ServerId{3}, ServerId{0}, ServerId{4}};
  batch.clear_servers(victims);
  for (const ServerId v : victims) {
    single.clear_servers(std::span<const ServerId>(&v, 1));
  }
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(batch.mean_node_traffic(PartitionId{p}, kServers - 3),
              single.mean_node_traffic(PartitionId{p}, kServers - 3));
    for (std::uint32_t s = 0; s < kServers; ++s) {
      EXPECT_EQ(batch.node_traffic(PartitionId{p}, ServerId{s}),
                single.node_traffic(PartitionId{p}, ServerId{s}));
    }
  }
}

TEST(EpochTraffic, ResetClearsEverything) {
  EpochTraffic traffic = make_traffic();
  traffic.node_traffic_mut(PartitionId{0}, ServerId{0}) = 1.0;
  traffic.served_mut(PartitionId{0}, ServerId{0}) = 1.0;
  traffic.partition_queries_mut(PartitionId{0}) = 1.0;
  traffic.unserved_mut(PartitionId{0}) = 1.0;
  traffic.server_work_mut(ServerId{0}) = 1.0;
  traffic.add_total_queries(5.0);
  traffic.add_path_sample(2.0, 3.0);
  traffic.reset();
  EXPECT_DOUBLE_EQ(traffic.node_traffic(PartitionId{0}, ServerId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.served(PartitionId{0}, ServerId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.partition_queries(PartitionId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.unserved(PartitionId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.server_work(ServerId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.total_queries(), 0.0);
  EXPECT_DOUBLE_EQ(traffic.mean_path_length(), 0.0);
}

TEST(EpochTraffic, MeanPathLengthIsQueryWeighted) {
  EpochTraffic traffic = make_traffic();
  traffic.add_path_sample(3.0, 2.0);  // 3 queries at 2 hops
  traffic.add_path_sample(1.0, 6.0);  // 1 query at 6 hops
  EXPECT_DOUBLE_EQ(traffic.mean_path_length(), (3.0 * 2.0 + 6.0) / 4.0);
}

}  // namespace
}  // namespace rfh
