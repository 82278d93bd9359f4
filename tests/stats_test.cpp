#include "sim/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
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
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2,
                     /*alpha_weights_history=*/true, /*requester_rows=*/true);
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

TEST(TrafficStats, ClearedServerCellsReadAbsentUntilTheNextFold) {
  // clear_servers only marks its victims; until the next fold drops their
  // cells, every reader — node_traffic, Eq. 17's mean and the cell
  // visitor — must skip them.
  TrafficStats stats(kPartitions, kServers, kDatacenters, 0.2);
  EpochTraffic traffic = make_traffic();
  traffic.node_traffic_mut(PartitionId{0}, ServerId{1}) = 30.0;
  traffic.node_traffic_mut(PartitionId{0}, ServerId{2}) = 12.0;
  traffic.node_traffic_mut(PartitionId{0}, ServerId{4}) = 10.0;
  stats.update(traffic);

  const ServerId victim[] = {ServerId{2}};
  stats.clear_servers(victim);
  std::vector<std::uint32_t> visited;
  stats.for_each_node_cell(PartitionId{0}, [&](const StatCell& cell) {
    visited.push_back(cell.server);
  });
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(stats.node_traffic(PartitionId{0}, ServerId{2}), 0.0);
  EXPECT_EQ(stats.mean_node_traffic(PartitionId{0}, 4), 40.0 / 4);

  // Revived before the fold: the victim restarts from b*obs, not from
  // its old EWMA.
  traffic.reset();
  traffic.node_traffic_mut(PartitionId{0}, ServerId{2}) = 5.0;
  stats.update(traffic);
  EXPECT_EQ(stats.node_traffic(PartitionId{0}, ServerId{2}), 0.8 * 5.0);
  visited.clear();
  stats.for_each_node_cell(PartitionId{0}, [&](const StatCell& cell) {
    visited.push_back(cell.server);
  });
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{1, 2, 4}));
}

// The tr_bar fold as it was before the in-place rewrite: a sorted merge
// (of a sorted copy of the epoch's cells, which come in any order)
// into a fresh cell list that re-sums Eq. 17's numerator every fold, and
// a clear_servers that erases the victims' cells at once and re-sums the
// partitions it touched. Kept here as the oracle for the in-place fold,
// lazy clears and Eq. 17-on-read.
class MergeFoldStats {
 public:
  MergeFoldStats(std::size_t partitions, std::size_t servers,
                 std::size_t datacenters, double alpha,
                 bool alpha_weights_history)
      : datacenters_(datacenters),
        alpha_(alpha_weights_history ? alpha : 1.0 - alpha),
        cells_(partitions),
        sum_(partitions, 0.0),
        avg_query_(partitions, 0.0),
        requester_(partitions * datacenters, 0.0),
        arrival_(servers, 0.0),
        frozen_(servers, 0) {}

  void update(const EpochTraffic& traffic) {
    const double a = initialized_ ? alpha_ : 0.0;
    const double b = 1.0 - a;
    initialized_ = true;
    for (std::size_t p = 0; p < cells_.size(); ++p) {
      const PartitionId pid{static_cast<std::uint32_t>(p)};
      avg_query_[p] = a * avg_query_[p] +
                      b * (traffic.partition_queries(pid) /
                           static_cast<double>(datacenters_));
      const std::vector<StatCell>& old_cells = cells_[p];
      // EpochTraffic's cells come in any order; the merge wants them
      // sorted by server.
      std::vector<TrafficCell> fresh(traffic.cells(pid).begin(),
                                     traffic.cells(pid).end());
      std::sort(fresh.begin(), fresh.end(),
                [](const TrafficCell& x, const TrafficCell& y) {
                  return x.server < y.server;
                });
      std::vector<StatCell> merged;
      double sum = 0.0;
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < old_cells.size() || j < fresh.size()) {
        const bool take_old =
            j >= fresh.size() ||
            (i < old_cells.size() && old_cells[i].server <= fresh[j].server);
        const bool take_fresh =
            i >= old_cells.size() ||
            (j < fresh.size() && fresh[j].server <= old_cells[i].server);
        const std::uint32_t server =
            take_old ? old_cells[i].server : fresh[j].server;
        const double prev = take_old ? old_cells[i].ewma : 0.0;
        const double obs = take_fresh ? fresh[j].node : 0.0;
        const double v = frozen_[server] != 0 ? prev : a * prev + b * obs;
        sum += v;
        if (v != 0.0) merged.push_back(StatCell{server, v});
        if (take_old) ++i;
        if (take_fresh) ++j;
      }
      cells_[p] = std::move(merged);
      sum_[p] = sum;
      const std::span<const QueryFlow> flows = traffic.demand(pid);
      std::size_t f = 0;
      for (std::uint32_t dc = 0; dc < datacenters_; ++dc) {
        const bool seen = f < flows.size() && flows[f].requester.value() == dc;
        double& v = requester_[p * datacenters_ + dc];
        v = a * v + b * (seen ? flows[f++].queries : 0.0);
      }
    }
    for (std::size_t s = 0; s < arrival_.size(); ++s) {
      if (frozen_[s] != 0) continue;
      arrival_[s] = a * arrival_[s] +
                    b * traffic.server_work(
                            ServerId{static_cast<std::uint32_t>(s)});
    }
  }

  void clear_servers(std::span<const ServerId> servers) {
    std::vector<std::uint8_t> gone(arrival_.size(), 0);
    for (const ServerId s : servers) {
      arrival_[s.value()] = 0.0;
      gone[s.value()] = 1;
    }
    for (std::size_t p = 0; p < cells_.size(); ++p) {
      std::vector<StatCell>& cells = cells_[p];
      const auto kept = std::remove_if(
          cells.begin(), cells.end(),
          [&](const StatCell& c) { return gone[c.server] != 0; });
      if (kept == cells.end()) continue;
      cells.erase(kept, cells.end());
      double sum = 0.0;
      for (const StatCell& cell : cells) sum += cell.ewma;
      sum_[p] = sum;
    }
  }

  void set_frozen(ServerId s, bool frozen) {
    frozen_[s.value()] = frozen ? 1 : 0;
  }
  const std::vector<StatCell>& cells(std::size_t p) const { return cells_[p]; }
  double eq17_sum(std::size_t p) const { return sum_[p]; }
  double avg_query(std::size_t p) const { return avg_query_[p]; }
  double requester(std::size_t p, std::size_t dc) const {
    return requester_[p * datacenters_ + dc];
  }
  double arrival(std::size_t s) const { return arrival_[s]; }

 private:
  std::size_t datacenters_;
  double alpha_;
  bool initialized_ = false;
  std::vector<std::vector<StatCell>> cells_;
  std::vector<double> sum_;
  std::vector<double> avg_query_;
  std::vector<double> requester_;
  std::vector<double> arrival_;
  std::vector<std::uint8_t> frozen_;
};

// Every observable of `got` equals the merge fold's, bit for bit.
void expect_same_stats(const TrafficStats& got, const MergeFoldStats& want,
                       std::size_t partitions, std::size_t servers,
                       std::size_t datacenters, bool rows,
                       const std::string& where) {
  SCOPED_TRACE(where);
  for (std::size_t p = 0; p < partitions; ++p) {
    const PartitionId pid{static_cast<std::uint32_t>(p)};
    std::vector<StatCell> cells;
    got.for_each_node_cell(
        pid, [&](const StatCell& cell) { cells.push_back(cell); });
    const std::vector<StatCell>& expected = want.cells(p);
    ASSERT_EQ(cells.size(), expected.size()) << "partition " << p;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_EQ(cells[i].server, expected[i].server) << "partition " << p;
      ASSERT_EQ(cells[i].ewma, expected[i].ewma) << "partition " << p;
    }
    for (std::uint32_t s = 0; s < servers; ++s) {
      const auto it = std::find_if(
          expected.begin(), expected.end(),
          [&](const StatCell& cell) { return cell.server == s; });
      ASSERT_EQ(got.node_traffic(pid, ServerId{s}),
                it == expected.end() ? 0.0 : it->ewma)
          << "partition " << p << " server " << s;
    }
    ASSERT_EQ(got.mean_node_traffic(pid, servers - 1),
              want.eq17_sum(p) / static_cast<double>(servers - 1))
        << "partition " << p;
    ASSERT_EQ(got.avg_query(pid), want.avg_query(p)) << "partition " << p;
    if (!rows) continue;
    for (std::uint32_t dc = 0; dc < datacenters; ++dc) {
      ASSERT_EQ(got.requester_queries(pid, DatacenterId{dc}),
                want.requester(p, dc))
          << "partition " << p << " dc " << dc;
    }
  }
  for (std::uint32_t s = 0; s < servers; ++s) {
    ASSERT_EQ(got.server_arrival(ServerId{s}), want.arrival(s))
        << "server " << s;
  }
}

TEST(TrafficStats, InPlaceFoldEqualsTheMergeFoldBitForBit) {
  // 600+ epochs of random sparse traffic through the sharded in-place
  // fold and the merge fold side by side. Servers 0-3 carry traffic only
  // in the first 40 epochs, so their cells decay until they underflow to
  // exactly 0.0 and are pruned. Frozen windows, clears of frozen servers,
  // victims that do and do not get traffic in the next fold, a clear
  // before the first fold (a = 0), both alpha orientations and stats
  // with and without requester rows are all exercised. The cells are
  // written in draw order, so the fold also sees them unordered.
  constexpr std::size_t kP = 160;  // enough for two 64-partition shards
  constexpr std::size_t kS = 24;
  constexpr std::size_t kDc = 4;
  constexpr std::uint32_t kRetired = 4;
  constexpr Epoch kEpochs = 640;
  ThreadPool pool(2);
  for (const bool history : {true, false}) {
    for (const bool rows : {false, true}) {
      // Effective decay 0.2 in both orientations: underflow to 0.0 takes
      // ~465 idle epochs.
      const double alpha = history ? 0.2 : 0.8;
      TrafficStats got(kP, kS, kDc, alpha, history, rows);
      MergeFoldStats want(kP, kS, kDc, alpha, history);
      Rng rng(history ? (rows ? 11 : 12) : (rows ? 13 : 14));
      std::vector<std::uint8_t> silent(kS, 0);  // victims kept out next fold
      std::size_t retired_resident = 0;  // retired servers' cells at epoch 40
      std::size_t revived = 0;
      std::size_t silenced = 0;
      std::size_t frozen_victims = 0;
      const std::string label = std::string(history ? "history" : "flipped") +
                                (rows ? " rows" : " no-rows");

      // A clear before any fold.
      const ServerId early[] = {ServerId{7}};
      got.clear_servers(early);
      want.clear_servers(early);
      expect_same_stats(got, want, kP, kS, kDc, rows,
                        label + " pre-fold clear");
      if (HasFatalFailure()) return;

      for (Epoch e = 0; e < kEpochs; ++e) {
        EpochTraffic traffic(kP, kS, kDc);
        QueryBatch demand;
        for (std::uint32_t p = 0; p < kP; ++p) {
          const std::uint64_t touched = rng.uniform(4);
          for (std::uint64_t k = 0; k < touched; ++k) {
            const std::uint32_t lo = e < 40 ? 0 : kRetired;
            const auto s = static_cast<std::uint32_t>(
                lo + rng.uniform(kS - lo));
            if (silent[s] != 0) continue;
            // One draw in eight observes a zero: the cell exists but
            // takes b * 0.0.
            traffic.node_traffic_mut(PartitionId{p}, ServerId{s}) =
                rng.uniform(8) == 0 ? 0.0 : rng.uniform_real_range(0.5, 50.0);
          }
          if (rng.uniform(2) == 0) {
            demand.push_back(QueryFlow{
                PartitionId{p},
                DatacenterId{static_cast<std::uint32_t>(rng.uniform(kDc))},
                static_cast<double>(1 + rng.uniform(30))});
          }
        }
        traffic.set_demand(std::move(demand));
        for (std::uint32_t s = 0; s < kS; ++s) {
          if (silent[s] == 0 && rng.uniform(3) == 0) {
            traffic.server_work_mut(ServerId{s}) = rng.uniform_real_range(1, 9);
          }
        }
        std::fill(silent.begin(), silent.end(), 0);

        got.update(traffic, &pool);
        want.update(traffic);
        if (e == 40) {
          for (std::size_t p = 0; p < kP; ++p) {
            for (const StatCell& cell : want.cells(p)) {
              if (cell.server < kRetired) ++retired_resident;
            }
          }
        }
        expect_same_stats(got, want, kP, kS, kDc, rows,
                          label + " fold " + std::to_string(e));
        if (HasFatalFailure()) return;

        // Freeze or thaw one server now and then.
        if (rng.uniform(5) == 0) {
          const ServerId s{static_cast<std::uint32_t>(
              kRetired + rng.uniform(kS - kRetired))};
          const bool freeze = !got.frozen(s);
          got.set_frozen(s, freeze);
          want.set_frozen(s, freeze);
        }
        // A failure wave: 1-3 victims (frozen ones included), each either
        // revived before the next fold (it gets traffic again) or not.
        if (rng.uniform(3) == 0) {
          std::vector<ServerId> victims;
          const std::uint64_t n = 1 + rng.uniform(3);
          for (std::uint64_t k = 0; k < n; ++k) {
            const ServerId s{static_cast<std::uint32_t>(
                kRetired + rng.uniform(kS - kRetired))};
            victims.push_back(s);
            if (got.frozen(s)) ++frozen_victims;
            if (rng.uniform(2) == 0) {
              silent[s.value()] = 1;
              ++silenced;
            } else {
              ++revived;
            }
          }
          got.clear_servers(victims);
          want.clear_servers(victims);
          expect_same_stats(got, want, kP, kS, kDc, rows,
                            label + " clear after fold " + std::to_string(e));
          if (HasFatalFailure()) return;
        }
      }
      // Not vacuous: waves took both paths, and the retired servers'
      // cells underflowed to 0.0 and were pruned.
      EXPECT_GT(revived, 0u) << label;
      EXPECT_GT(silenced, 0u) << label;
      EXPECT_GT(frozen_victims, 0u) << label;
      for (std::size_t p = 0; p < kP; ++p) {
        for (const StatCell& cell : want.cells(p)) {
          EXPECT_GE(cell.server, kRetired) << label << " partition " << p;
        }
      }
      EXPECT_GT(retired_resident, 0u) << label;
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

  TrafficStats serial(kWide, kServers, kDatacenters, 0.2,
                      /*alpha_weights_history=*/true, /*requester_rows=*/true);
  TrafficStats sharded(kWide, kServers, kDatacenters, 0.2,
                       /*alpha_weights_history=*/true,
                       /*requester_rows=*/true);
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
