// Streaming load subsystem (src/stream/): arrival generation, the
// bounded M/D/c server queue, the analytic M/G/c bridge, and the
// end-to-end accounting contract
// (arrivals == served + blocked + dropped).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/erlang.h"
#include "common/rng.h"
#include "fault/invariants.h"
#include "harness/runner.h"
#include "stream/arrival.h"
#include "stream/queue_model.h"
#include "stream/stream_sim.h"

namespace rfh {
namespace {

// ---------------------------------------------------------------------
// ArrivalGenerator

/// The timestamps ArrivalGenerator::timestamps_into writes for one
/// (epoch, DC) stream.
std::vector<double> timestamps(const ArrivalGenerator& gen, Epoch epoch,
                               DatacenterId dc, std::size_t n) {
  std::vector<double> out;
  gen.timestamps_into(epoch, dc, n, out);
  return out;
}

TEST(ArrivalGeneratorTest, TimestampsAreSortedInRangeAndExactCount) {
  const ArrivalGenerator gen(42);
  const std::vector<double> ts =
      timestamps(gen, Epoch{3}, DatacenterId{2}, 500);
  ASSERT_EQ(ts.size(), 500u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  for (const double t : ts) {
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, StreamConfig::kEpochMs);
  }
}

TEST(ArrivalGeneratorTest, PureFunctionOfSeedEpochDcAndCount) {
  const ArrivalGenerator a(42);
  const ArrivalGenerator b(42);
  // Draw order must not matter: b samples other (epoch, DC) streams
  // first, then the same one — forked per-(epoch, DC) streams make the
  // result independent of any other cell's consumption.
  (void)timestamps(b, Epoch{9}, DatacenterId{7}, 123);
  (void)timestamps(b, Epoch{3}, DatacenterId{1}, 77);
  EXPECT_EQ(timestamps(a, Epoch{3}, DatacenterId{2}, 64),
            timestamps(b, Epoch{3}, DatacenterId{2}, 64));
}

TEST(ArrivalGeneratorTest, DistinctStreamsPerEpochDcAndSeed) {
  const ArrivalGenerator gen(42);
  const ArrivalGenerator other(43);
  const auto base = timestamps(gen, Epoch{3}, DatacenterId{2}, 64);
  EXPECT_NE(base, timestamps(gen, Epoch{4}, DatacenterId{2}, 64));
  EXPECT_NE(base, timestamps(gen, Epoch{3}, DatacenterId{3}, 64));
  EXPECT_NE(base, timestamps(other, Epoch{3}, DatacenterId{2}, 64));
}

// ---------------------------------------------------------------------
// ServerQueue

TEST(ServerQueueTest, FreeChannelServesImmediately) {
  ServerQueue queue(/*channels=*/2, /*service_ms=*/10.0, /*queue_cap=*/4);
  const auto a = queue.offer(0.0);
  const auto b = queue.offer(0.0);
  EXPECT_TRUE(a.accepted);
  EXPECT_TRUE(b.accepted);
  EXPECT_DOUBLE_EQ(a.wait_ms, 0.0);
  EXPECT_DOUBLE_EQ(b.wait_ms, 0.0);
  EXPECT_EQ(queue.max_depth(), 0u);
}

TEST(ServerQueueTest, SingleChannelFifoWaits) {
  ServerQueue queue(/*channels=*/1, /*service_ms=*/10.0, /*queue_cap=*/8);
  EXPECT_DOUBLE_EQ(queue.offer(0.0).wait_ms, 0.0);   // served 0..10
  EXPECT_DOUBLE_EQ(queue.offer(1.0).wait_ms, 9.0);   // served 10..20
  EXPECT_DOUBLE_EQ(queue.offer(2.0).wait_ms, 18.0);  // served 20..30
  EXPECT_DOUBLE_EQ(queue.offer(25.0).wait_ms, 5.0);  // waits for #3
  EXPECT_DOUBLE_EQ(queue.offer(100.0).wait_ms, 0.0);  // queue drained
  EXPECT_EQ(queue.accepted(), 5u);
  EXPECT_EQ(queue.dropped(), 0u);
}

TEST(ServerQueueTest, DropsAtQueueCapAndNeverExceedsIt) {
  ServerQueue queue(/*channels=*/1, /*service_ms=*/100.0, /*queue_cap=*/2);
  EXPECT_TRUE(queue.offer(0.0).accepted);  // in service
  EXPECT_TRUE(queue.offer(0.0).accepted);  // waiter 1
  EXPECT_TRUE(queue.offer(0.0).accepted);  // waiter 2 (room now full)
  const auto dropped = queue.offer(0.0);
  EXPECT_FALSE(dropped.accepted);
  EXPECT_EQ(dropped.depth, 2u);
  EXPECT_EQ(queue.dropped(), 1u);
  EXPECT_LE(queue.max_depth(), 2u);
}

TEST(ServerQueueTest, MaxDepthStaysWithinCapUnderRandomLoad) {
  // Heavy overload (a = 4 on one channel): depth must still be bounded.
  Rng rng(99);
  for (const std::uint32_t cap : {1u, 3u, 16u}) {
    ServerQueue queue(/*channels=*/1, /*service_ms=*/4.0, cap);
    double t = 0.0;
    for (int i = 0; i < 5000; ++i) {
      t += -std::log(1.0 - rng.uniform_real());
      (void)queue.offer(t);
    }
    EXPECT_LE(queue.max_depth(), cap);
    EXPECT_GT(queue.dropped(), 0u);
  }
}

TEST(ServerQueueTest, ZeroChannelsDropsEverything) {
  ServerQueue queue(/*channels=*/0, /*service_ms=*/10.0, /*queue_cap=*/4);
  EXPECT_FALSE(queue.offer(0.0).accepted);
  EXPECT_FALSE(queue.offer(5.0).accepted);
  EXPECT_EQ(queue.dropped(), 2u);
  EXPECT_EQ(queue.accepted(), 0u);
}

// ---------------------------------------------------------------------
// Analytic bridge: the simulated M/D/c wait, scaled by (1 + cv^2),
// matches erlang_mgc_mean_wait (Allen-Cunneen) for Poisson arrivals.

double simulated_mdc_wait(double offered, std::uint32_t channels,
                          std::uint64_t seed) {
  // Poisson arrivals at rate `offered` per service time; deterministic
  // unit service. Uncapped queue (stable since offered < channels).
  ServerQueue queue(channels, /*service_ms=*/1.0, /*queue_cap=*/1000000);
  Rng rng(seed);
  double t = 0.0;
  double total_wait = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.uniform_real()) / offered;
    total_wait += queue.offer(t).wait_ms;
  }
  return total_wait / n;
}

TEST(QueueAnalyticTest, SimulatedWaitTracksAllenCunneen) {
  struct Case {
    double offered;
    std::uint32_t channels;
  };
  for (const Case c : {Case{0.7, 1}, Case{2.0, 4}, Case{3.2, 4}}) {
    const double simulated = simulated_mdc_wait(c.offered, c.channels, 1234);
    const double analytic = erlang_mgc_mean_wait(c.offered, c.channels,
                                                 /*cv=*/0.0);
    // Allen-Cunneen is exact for c = 1 and a few percent off for c > 1;
    // the simulation adds sampling noise on top.
    EXPECT_NEAR(simulated, analytic, 0.15 * analytic)
        << "a=" << c.offered << " c=" << c.channels;
    // cv scaling is a pure multiplier on both sides, so checking one cv
    // covers them all: simulated * (1 + cv^2) vs analytic M/G/c.
    const double cv = 2.0;
    EXPECT_NEAR(simulated * (1.0 + cv * cv),
                erlang_mgc_mean_wait(c.offered, c.channels, cv),
                0.15 * erlang_mgc_mean_wait(c.offered, c.channels, cv));
  }
}

// ---------------------------------------------------------------------
// End-to-end: a stream run satisfies the accounting contract under the
// invariant checker, and reports latency percentiles.

TEST(StreamSimulatorTest, FullRunAccountingAndPercentiles) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.workload = WorkloadKind::kStream;
  scenario.epochs = 20;
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh, {},
                                   RfhPolicy::Options{}, nullptr, nullptr,
                                   nullptr, &checker);
  EXPECT_TRUE(checker.violations().empty()) << checker.summary();
  ASSERT_EQ(run.series.size(), 20u);
  double arrivals = 0.0;
  for (const EpochMetrics& m : run.series) {
    arrivals += m.stream_arrivals;
    EXPECT_NEAR(m.stream_arrivals,
                m.stream_served + m.stream_blocked + m.stream_dropped,
                1e-6 * std::max(1.0, m.stream_arrivals));
    EXPECT_LE(m.stream_max_queue_depth, scenario.stream.queue_cap);
    // Percentiles are ordered whenever anything was sampled.
    if (m.stream_served > 0.0) {
      EXPECT_LE(m.stream_p50_ms, m.stream_p99_ms);
      EXPECT_LE(m.stream_p99_ms, m.stream_p999_ms);
      EXPECT_GT(m.stream_p999_ms, 0.0);
    }
  }
  EXPECT_GT(arrivals, 0.0);
}

TEST(StreamSimulatorTest, OverloadTriggersBackpressureNotViolations) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.workload = WorkloadKind::kStream;
  scenario.epochs = 12;
  scenario.stream.arrival_rate = 4000.0;
  scenario.stream.queue_cap = 3;
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh, {},
                                   RfhPolicy::Options{}, nullptr, nullptr,
                                   nullptr, &checker);
  EXPECT_TRUE(checker.violations().empty()) << checker.summary();
  double dropped = 0.0;
  std::uint32_t max_depth = 0;
  for (const EpochMetrics& m : run.series) {
    dropped += m.stream_dropped;
    max_depth = std::max(max_depth, m.stream_max_queue_depth);
  }
  EXPECT_GT(dropped, 0.0);
  EXPECT_LE(max_depth, 3u);
}

// ---------------------------------------------------------------------
// check_stream flags violated contracts (fabricated stats).

TEST(InvariantCheckerStreamTest, FlagsAccountingMismatch) {
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  StreamConfig config;
  StreamEpochStats stats;
  stats.epoch = 1;
  stats.arrivals = 100.0;
  stats.served = 80.0;
  stats.blocked = 10.0;
  stats.dropped = 0.0;  // 90 != 100
  EXPECT_GT(checker.check_stream(stats, config, /*batch_total=*/100.0), 0u);
}

TEST(InvariantCheckerStreamTest, FlagsDepthOverCapAndBatchMismatch) {
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  StreamConfig config;
  config.queue_cap = 4;
  StreamEpochStats stats;
  stats.epoch = 2;
  stats.arrivals = 50.0;
  stats.served = 50.0;
  stats.max_queue_depth = 5;  // > cap
  EXPECT_GT(checker.check_stream(stats, config, /*batch_total=*/50.0), 0u);

  StreamEpochStats mismatched;
  mismatched.epoch = 3;
  mismatched.arrivals = 50.0;
  mismatched.served = 50.0;
  // Stream total disagreeing with the batch total breaks equivalence.
  EXPECT_GT(checker.check_stream(mismatched, config, /*batch_total=*/60.0),
            0u);
}

TEST(InvariantCheckerStreamTest, CleanStatsPass) {
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  StreamConfig config;
  StreamEpochStats stats;
  stats.epoch = 4;
  stats.arrivals = 100.0;
  stats.served = 70.0;
  stats.blocked = 20.0;
  stats.dropped = 10.0;
  stats.max_queue_depth = config.queue_cap;
  EXPECT_EQ(checker.check_stream(stats, config, /*batch_total=*/100.0), 0u);
  EXPECT_TRUE(checker.violations().empty());
}

}  // namespace
}  // namespace rfh
