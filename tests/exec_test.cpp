// ThreadPool and SweepRunner unit tests (src/exec/): task ordering,
// exception propagation, nested submit-and-wait, sharded fan-out and
// sweep plumbing. The byte-level parallel-vs-serial differential
// suite lives in tests/determinism_test.cpp.
#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/sweep.h"
#include "telemetry/registry.h"

namespace rfh {
namespace {

TEST(ThreadPoolTest, SingleWorkerRunsExternalTasksInSubmissionOrder) {
  // Submissions land in the one FIFO queue; with no helping thread
  // (future::wait, not pool.wait), the one worker is the only consumer,
  // so completion order is submission order.
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mutex;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&, i] {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    }));
  }
  for (auto& f : futures) f.wait();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, HelpingThreadDequeuesExternalTasksInSubmissionOrder) {
  // The contract is FIFO *dequeue*: a foreign thread helping the pool
  // takes queued tasks in submission order. Park the only worker on a
  // gate so the helper is the sole consumer, then drain by hand.
  ThreadPool pool(1);
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = pool.submit([&parked, gate] {
    parked.set_value();
    gate.wait();
  });
  parked.get_future().wait();

  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  int helped = 0;
  while (helped < 32 && pool.run_one()) ++helped;
  release.set_value();  // before any assertion, so the pool can join
  pool.wait(blocker);
  EXPECT_EQ(helped, 16);
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, AllTasksExecuteAcrossManyWorkers) {
  ThreadPool pool(8);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&done] {
      done.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) pool.wait(f);
  EXPECT_EQ(done.load(), 500);
  EXPECT_EQ(pool.stats().executed, 500u);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFutureNotWorker) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("cell exploded");
  });
  EXPECT_THROW((void)pool.wait(bad), std::runtime_error);
  // The worker survived the throw and keeps executing tasks.
  auto good = pool.submit([] { return 7; });
  EXPECT_EQ(pool.wait(good), 7);
}

TEST(ThreadPoolTest, NestedSubmitAndWaitDoesNotDeadlock) {
  // A task that submits a subtask and waits on it would deadlock a
  // naive 1-thread pool; wait() executes pending tasks while waiting.
  ThreadPool pool(1);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 21; });
    return 2 * pool.wait(inner);
  });
  EXPECT_EQ(pool.wait(outer), 42);
}

TEST(ThreadPoolTest, DeeplyNestedSubmitsComplete) {
  ThreadPool pool(2);
  std::function<int(int)> spawn = [&](int depth) -> int {
    if (depth == 0) return 1;
    auto child = pool.submit([&spawn, depth] { return spawn(depth - 1); });
    return 1 + pool.wait(child);
  };
  auto root = pool.submit([&spawn] { return spawn(16); });
  EXPECT_EQ(pool.wait(root), 17);
}

TEST(ThreadPoolTest, WaitIdleDrainsEverything) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    (void)pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&done] { done.fetch_add(1); });
    }
  }  // ~ThreadPool joins after draining
  EXPECT_EQ(done.load(), 50);
}

// ---------------------------------------------------------------------
// parallel_for_shards: shard boundaries are a pure function of (n,
// shards), shard-order merges reproduce the serial order for any shard
// count, and the cooperative join lets a body issue nested parallel_fors
// on the same pool without deadlocking it.

TEST(ParallelForTest, ShardRangesPartitionTheIndexSpace) {
  for (const std::size_t n : {0uL, 1uL, 7uL, 64uL, 1000uL}) {
    for (const unsigned shards : {1u, 2u, 4u, 7u, 16u}) {
      std::size_t expected_begin = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const IndexRange range = shard_range(n, shards, s);
        EXPECT_EQ(range.begin, expected_begin) << n << "/" << shards;
        EXPECT_GE(range.end, range.begin);
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, n) << n << "/" << shards;
    }
  }
}

TEST(ParallelForTest, ShardOrderMergeIsShardCountInvariant) {
  // The engine's merge discipline in miniature: each shard appends to a
  // private buffer, buffers are concatenated in shard order. The result
  // must equal the serial iteration order for every shard count.
  constexpr std::size_t kN = 1000;
  ThreadPool pool(3);
  std::vector<std::size_t> reference(kN);
  for (std::size_t i = 0; i < kN; ++i) reference[i] = i * 31 % 257;

  for (const unsigned shards : {1u, 4u, 7u}) {
    std::vector<std::vector<std::size_t>> per_shard(shards);
    parallel_for_shards(&pool, kN, shards,
                        [&](unsigned shard, IndexRange range) {
                          for (std::size_t i = range.begin; i < range.end;
                               ++i) {
                            per_shard[shard].push_back(i * 31 % 257);
                          }
                        });
    std::vector<std::size_t> merged;
    for (const std::vector<std::size_t>& chunk : per_shard) {
      merged.insert(merged.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(merged, reference) << "shards " << shards;
  }
}

TEST(ParallelForTest, NestedParallelForOnTheSamePoolCompletes) {
  // Regression for the cooperative-wait gap: a parallel_for issued from
  // inside a pool task (the sweep-cell shape) must drain via
  // ThreadPool::wait instead of deadlocking — including on a 1-worker
  // pool, where every nested shard runs on the waiting thread.
  for (const unsigned workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<int> total{0};
    std::vector<std::future<void>> cells;
    for (int cell = 0; cell < 6; ++cell) {
      cells.push_back(pool.submit([&pool, &total] {
        parallel_for_shards(&pool, 128, 4,
                            [&total](unsigned, IndexRange range) {
                              total.fetch_add(
                                  static_cast<int>(range.end - range.begin),
                                  std::memory_order_relaxed);
                            });
      }));
    }
    for (auto& f : cells) pool.wait(f);
    EXPECT_EQ(total.load(), 6 * 128) << "workers " << workers;
  }
}

TEST(ParallelForTest, ExceptionInOneShardStillJoinsAllShards) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      parallel_for_shards(&pool, 8, 8,
                          [&](unsigned shard, IndexRange) {
                            if (shard == 3) {
                              throw std::runtime_error("shard exploded");
                            }
                            completed.fetch_add(1);
                          }),
      std::runtime_error);
  // Every non-throwing shard ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 7);
}

// ---------------------------------------------------------------------
// SweepRunner plumbing (cell identity, collection, telemetry). The
// bit-identity guarantees are covered in determinism_test.cpp.

std::vector<SweepCell> small_grid() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const PolicyKind kind : {PolicyKind::kOwner, PolicyKind::kRfh}) {
      SweepCell cell;
      cell.label = "seed" + std::to_string(seed);
      cell.scenario = Scenario::paper_random_query();
      cell.scenario.epochs = 10;
      cell.scenario.sim.seed = seed;
      cell.scenario.world.seed = seed;
      cell.policy = kind;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

TEST(SweepRunnerTest, ResultsArriveInCellIndexOrderWithIdentity) {
  SweepOptions options;
  options.jobs = 4;
  const std::vector<SweepCell> cells = small_grid();
  const std::vector<SweepCellResult> results = SweepRunner(options).run(cells);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].label, cells[i].label);
    EXPECT_EQ(results[i].policy, cells[i].policy);
    EXPECT_EQ(results[i].seed, cells[i].scenario.sim.seed);
    EXPECT_EQ(results[i].run.series.size(), cells[i].scenario.epochs);
  }
}

TEST(SweepRunnerTest, CollectionTogglesMetricsAndTraces) {
  std::vector<SweepCell> cells = small_grid();
  cells.resize(2);

  SweepOptions off;
  for (const SweepCellResult& r : SweepRunner(off).run(cells)) {
    EXPECT_TRUE(r.metrics_json.empty());
    EXPECT_TRUE(r.trace_jsonl.empty());
  }

  SweepOptions on;
  on.jobs = 2;
  on.collect_metrics = true;
  on.collect_traces = true;
  for (const SweepCellResult& r : SweepRunner(on).run(cells)) {
    EXPECT_NE(r.metrics_json.find("rfh-metrics/1"), std::string::npos);
    EXPECT_FALSE(r.trace_jsonl.empty());
  }
}

TEST(SweepRunnerTest, SweepTelemetryCountsCellsAndPoolWork) {
  MetricRegistry registry;
  SweepOptions options;
  options.jobs = 3;
  options.registry = &registry;
  const std::vector<SweepCell> cells = small_grid();
  (void)SweepRunner(options).run(cells);
  EXPECT_EQ(registry.counter("rfh_sweep_cells_total").value(),
            static_cast<double>(cells.size()));
  EXPECT_EQ(registry.counter("rfh_pool_tasks_executed_total").value(),
            static_cast<double>(cells.size()));
  EXPECT_EQ(registry.gauge("rfh_sweep_jobs").value(), 3.0);
}

TEST(SweepRunnerTest, EffectiveJobsResolvesZeroToHardware) {
  SweepOptions zero;
  zero.jobs = 0;
  EXPECT_GE(SweepRunner(zero).effective_jobs(), 1u);
  SweepOptions eight;
  eight.jobs = 8;
  EXPECT_EQ(SweepRunner(eight).effective_jobs(), 8u);
}

TEST(SweepDigestTest, EveryDropReasonAndStarvedRepairsMoveTheDigest) {
  // series_digest promises every field of every EpochMetrics; a field it
  // skips is a divergence the serial-vs-jobs checks cannot see.
  const std::vector<EpochMetrics> base(3);
  const std::uint64_t reference = series_digest(base);
  for (std::uint32_t EpochMetrics::* field :
       {&EpochMetrics::dropped_zone_diversity, &EpochMetrics::dropped_unknown,
        &EpochMetrics::repairs_starved}) {
    std::vector<EpochMetrics> perturbed = base;
    perturbed[1].*field = 1;
    EXPECT_NE(series_digest(perturbed), reference);
  }
}

TEST(SweepRunnerTest, ThreadedEnginesInsideThreadedSweepCellsComplete) {
  // Each cell builds a Simulation with its own intra-epoch pool
  // (scenario.engine_jobs) while the sweep fans cells across its pool —
  // nested parallelism across *separate* pools. This must neither
  // deadlock nor perturb results: the threaded grid matches the fully
  // serial one cell for cell.
  std::vector<SweepCell> cells = small_grid();
  std::vector<SweepCell> threaded = cells;
  for (SweepCell& cell : threaded) cell.scenario.engine_jobs = 4;

  SweepOptions serial_options;  // jobs = 1, serial engines
  serial_options.jobs = 1;
  SweepOptions nested_options;  // 4 sweep workers x 4 engine workers
  nested_options.jobs = 4;
  const std::vector<SweepCellResult> reference =
      SweepRunner(serial_options).run(cells);
  const std::vector<SweepCellResult> nested =
      SweepRunner(nested_options).run(threaded);
  ASSERT_EQ(nested.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(series_digest(nested[i].run.series),
              series_digest(reference[i].run.series))
        << "cell " << i;
  }
}

}  // namespace
}  // namespace rfh
