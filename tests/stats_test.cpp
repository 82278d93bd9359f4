#include "sim/stats.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/thread_pool.h"

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
  traffic.set_demand({QueryFlow{PartitionId{0}, DatacenterId{0}, 23.0},
                      QueryFlow{PartitionId{0}, DatacenterId{1}, 7.0}});
  traffic.node_traffic_mut(PartitionId{0}, ServerId{2}) = 12.0;
  traffic.server_work_mut(ServerId{2}) = 9.0;
  stats.update(traffic);

  EXPECT_TRUE(stats.initialized());
  // q_bar is the per-requester average: 30 / 3 datacenters.
  EXPECT_DOUBLE_EQ(stats.avg_query(PartitionId{0}), 10.0);
  EXPECT_DOUBLE_EQ(stats.node_traffic(PartitionId{0}, ServerId{2}), 12.0);
  EXPECT_DOUBLE_EQ(stats.requester_queries(PartitionId{0}, DatacenterId{0}),
                   23.0);
  EXPECT_DOUBLE_EQ(stats.requester_queries(PartitionId{0}, DatacenterId{1}),
                   7.0);
  EXPECT_DOUBLE_EQ(stats.requester_queries(PartitionId{0}, DatacenterId{2}),
                   0.0);
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
  traffic.set_demand({QueryFlow{PartitionId{3}, DatacenterId{2}, 21.0}});
  for (int i = 0; i < 50; ++i) stats.update(traffic);
  EXPECT_NEAR(stats.avg_query(PartitionId{3}), 7.0, 1e-9);
}

// The Ewma suite pins the smoothing of Eqs. 10-11 as TrafficStats
// applies it: every smoothed series shares one (alpha, orientation).
TEST(Ewma, FirstObservationInitializesDirectly) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EXPECT_FALSE(stats.initialized());
  EpochTraffic traffic = make_traffic();
  traffic.server_work_mut(ServerId{3}) = 10.0;
  stats.update(traffic);
  EXPECT_TRUE(stats.initialized());
  // No zero bias: the first sample is taken as is, not 0.8 * 10.
  EXPECT_DOUBLE_EQ(stats.server_arrival(ServerId{3}), 10.0);
}

TEST(Ewma, PaperFormulaOrientation) {
  // v_t = alpha * v_{t-1} + (1 - alpha) * x_t with alpha weighting history
  // (Eqs. 10-11).
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EpochTraffic traffic = make_traffic();
  traffic.server_work_mut(ServerId{3}) = 10.0;
  stats.update(traffic);
  traffic.reset();
  stats.update(traffic);
  EXPECT_DOUBLE_EQ(stats.server_arrival(ServerId{3}), 0.2 * 10.0);
  traffic.reset();
  traffic.server_work_mut(ServerId{3}) = 5.0;
  stats.update(traffic);
  EXPECT_DOUBLE_EQ(stats.server_arrival(ServerId{3}), 0.2 * 2.0 + 0.8 * 5.0);
}

TEST(Ewma, ConvergesToConstantInput) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.7);
  EpochTraffic traffic = make_traffic();
  stats.update(traffic);
  traffic.node_traffic_mut(PartitionId{2}, ServerId{5}) = 42.0;
  for (int i = 0; i < 200; ++i) stats.update(traffic);
  EXPECT_NEAR(stats.node_traffic(PartitionId{2}, ServerId{5}), 42.0, 1e-9);
}

TEST(Ewma, HighAlphaAdaptsSlowly) {
  // alpha weights history: 0.1 adapts fast, 0.9 slowly.
  TrafficStats fast(kPartitions, kServers, kDatacenters, 0.1);
  TrafficStats slow(kPartitions, kServers, kDatacenters, 0.9);
  EpochTraffic traffic = make_traffic();
  fast.update(traffic);
  slow.update(traffic);
  traffic.node_traffic_mut(PartitionId{0}, ServerId{1}) = 100.0;
  fast.update(traffic);
  slow.update(traffic);
  EXPECT_GT(fast.node_traffic(PartitionId{0}, ServerId{1}),
            slow.node_traffic(PartitionId{0}, ServerId{1}));
}

TEST(Ewma, StaysWithinObservedRange) {
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.3);
  EpochTraffic traffic = make_traffic();
  double lo = 1e18;
  double hi = -1e18;
  for (const double x : {3.0, 7.0, 1.0, 9.0, 4.0, 4.0, 2.0}) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    traffic.server_work_mut(ServerId{4}) = x;
    stats.update(traffic);
    EXPECT_GE(stats.server_arrival(ServerId{4}), lo - 1e-12);
    EXPECT_LE(stats.server_arrival(ServerId{4}), hi + 1e-12);
  }
}

TEST(EwmaDeath, RejectsDegenerateAlpha) {
  EXPECT_DEATH(TrafficStats(kPartitions, kServers, kDatacenters, 0.0), "");
  EXPECT_DEATH(TrafficStats(kPartitions, kServers, kDatacenters, 1.0), "");
  EXPECT_DEATH(TrafficStats(kPartitions, kServers, kDatacenters, -0.5), "");
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
  traffic.set_demand({QueryFlow{PartitionId{0}, DatacenterId{1}, 5.0}});
  traffic.unserved_mut(PartitionId{0}) = 1.0;
  traffic.server_work_mut(ServerId{0}) = 1.0;
  traffic.add_path_sample(2.0, 3.0);
  traffic.reset();
  EXPECT_DOUBLE_EQ(traffic.node_traffic(PartitionId{0}, ServerId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.served(PartitionId{0}, ServerId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.partition_queries(PartitionId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.unserved(PartitionId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.server_work(ServerId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.total_queries(), 0.0);
  EXPECT_DOUBLE_EQ(traffic.mean_path_length(), 0.0);
  EXPECT_TRUE(traffic.demand().empty());
  EXPECT_TRUE(traffic.demand(PartitionId{0}).empty());
}

TEST(EpochTraffic, SetDemandKeepsTheCanonicalBatch) {
  // Shuffled, with (2, 1) twice and (0, 2) three times: the demand comes
  // back strictly ascending by (partition, requester), equal keys summed.
  EpochTraffic traffic = make_traffic();
  traffic.set_demand({QueryFlow{PartitionId{2}, DatacenterId{1}, 1.0},
                      QueryFlow{PartitionId{0}, DatacenterId{2}, 2.0},
                      QueryFlow{PartitionId{2}, DatacenterId{0}, 4.0},
                      QueryFlow{PartitionId{0}, DatacenterId{2}, 8.0},
                      QueryFlow{PartitionId{2}, DatacenterId{1}, 16.0},
                      QueryFlow{PartitionId{0}, DatacenterId{0}, 32.0},
                      QueryFlow{PartitionId{0}, DatacenterId{2}, 64.0}});
  const std::span<const QueryFlow> all = traffic.demand();
  ASSERT_EQ(all.size(), 4u);
  const std::uint32_t want[][2] = {{0, 0}, {0, 2}, {2, 0}, {2, 1}};
  const double want_queries[] = {32.0, 74.0, 4.0, 17.0};
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].partition.value(), want[i][0]) << i;
    EXPECT_EQ(all[i].requester.value(), want[i][1]) << i;
    EXPECT_DOUBLE_EQ(all[i].queries, want_queries[i]) << i;
  }
  EXPECT_EQ(traffic.demand(PartitionId{0}).size(), 2u);
  EXPECT_TRUE(traffic.demand(PartitionId{1}).empty());
  EXPECT_EQ(traffic.demand(PartitionId{2}).size(), 2u);
  EXPECT_EQ(traffic.demand(PartitionId{2})[1].queries, 17.0);
  EXPECT_TRUE(traffic.demand(PartitionId{3}).empty());
  EXPECT_DOUBLE_EQ(traffic.partition_queries(PartitionId{0}), 106.0);
  EXPECT_DOUBLE_EQ(traffic.partition_queries(PartitionId{1}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.partition_queries(PartitionId{2}), 21.0);
  EXPECT_DOUBLE_EQ(traffic.total_queries(), 127.0);

  // A later set_demand replaces the epoch's demand outright.
  traffic.set_demand({QueryFlow{PartitionId{1}, DatacenterId{0}, 3.0}});
  EXPECT_TRUE(traffic.demand(PartitionId{0}).empty());
  EXPECT_EQ(traffic.demand(PartitionId{1}).size(), 1u);
  EXPECT_DOUBLE_EQ(traffic.partition_queries(PartitionId{0}), 0.0);
  EXPECT_DOUBLE_EQ(traffic.total_queries(), 3.0);
}

TEST(TrafficStats, RequesterRowsFollowTheDemand) {
  // Enough partitions for the fold to shard them: sharded and serial
  // agree bit for bit, and a DC without a flow decays as a*v + b*0.0.
  constexpr std::uint32_t kWide = 256;
  QueryBatch busy;
  for (std::uint32_t p = 0; p < kWide; ++p) {
    busy.push_back(QueryFlow{PartitionId{p}, DatacenterId{0}, 10.0 + p});
    if (p % 2 == 0) {
      busy.push_back(QueryFlow{PartitionId{p}, DatacenterId{2}, 0.5 * p});
    }
  }
  EpochTraffic first(kWide, kServers, kDatacenters);
  first.set_demand(busy);
  EpochTraffic second(kWide, kServers, kDatacenters);
  second.set_demand({QueryFlow{PartitionId{4}, DatacenterId{2}, 1.0}});

  TrafficStats serial(kWide, kServers, kDatacenters, 0.2);
  TrafficStats sharded(kWide, kServers, kDatacenters, 0.2);
  ThreadPool pool(4);
  for (const EpochTraffic* traffic : {&first, &second}) {
    serial.update(*traffic);
    sharded.update(*traffic, &pool);
  }
  EXPECT_DOUBLE_EQ(serial.requester_queries(PartitionId{4}, DatacenterId{0}),
                   0.2 * 14.0);
  EXPECT_DOUBLE_EQ(serial.requester_queries(PartitionId{4}, DatacenterId{1}),
                   0.0);
  EXPECT_DOUBLE_EQ(serial.requester_queries(PartitionId{4}, DatacenterId{2}),
                   0.2 * 2.0 + 0.8 * 1.0);
  for (std::uint32_t p = 0; p < kWide; ++p) {
    for (std::uint32_t dc = 0; dc < kDatacenters; ++dc) {
      EXPECT_EQ(serial.requester_queries(PartitionId{p}, DatacenterId{dc}),
                sharded.requester_queries(PartitionId{p}, DatacenterId{dc}))
          << p << "," << dc;
    }
    EXPECT_EQ(serial.avg_query(PartitionId{p}),
              sharded.avg_query(PartitionId{p}));
  }
}

TEST(EpochTraffic, MeanPathLengthIsQueryWeighted) {
  EpochTraffic traffic = make_traffic();
  traffic.add_path_sample(3.0, 2.0);  // 3 queries at 2 hops
  traffic.add_path_sample(1.0, 6.0);  // 1 query at 6 hops
  EXPECT_DOUBLE_EQ(traffic.mean_path_length(), (3.0 * 2.0 + 6.0) / 4.0);
}

}  // namespace
}  // namespace rfh
