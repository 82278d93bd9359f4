// Differential determinism suite for the parallel execution subsystem.
//
// The guarantees locked down here, byte for byte:
//   * a --jobs=8 sweep returns what the serial (--jobs=1) sweep returns —
//     every cell's series digest, kill order, fault counts and SLO
//     breaches — including under a rolling-churn FaultPlan;
//   * run_comparison with a pool (jobs 2, 4, 8) == the inline jobs=1
//     comparison;
//   * a run with its epoch phases sharded across 8 workers writes the
//     same event trace, metric dump and flight record, byte for byte, as
//     the serial engine, on a 10k-server churn world and on every hostile
//     corpus scenario;
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/case.h"
#include "core/rfh_policy.h"
#include "exec/sweep.h"
#include "fault/plan.h"
#include "harness/runner.h"
#include "metrics/collector.h"
#include "obs/sinks.h"
#include "obs/timeline.h"
#include "telemetry/registry.h"
#include "test_util.h"
#include "workload/generator.h"

namespace rfh {
namespace {

std::vector<SweepCell> mixed_grid() {
  std::vector<SweepCell> cells;
  const WorkloadKind workloads[] = {WorkloadKind::kUniform,
                                    WorkloadKind::kFlashCrowd};
  const PolicyKind policies[] = {PolicyKind::kRequest, PolicyKind::kOwner,
                                 PolicyKind::kRandom, PolicyKind::kRfh};
  for (const std::uint64_t seed : {11ull, 23ull}) {
    for (const WorkloadKind workload : workloads) {
      for (const PolicyKind policy : policies) {
        SweepCell cell;
        cell.label = "seed=" + std::to_string(seed);
        cell.scenario = Scenario::paper_random_query();
        cell.scenario.workload = workload;
        cell.scenario.epochs = 12;
        cell.scenario.sim.seed = seed;
        cell.scenario.world.seed = seed;
        cell.policy = policy;
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

std::vector<SweepCellResult> run_grid(const std::vector<SweepCell>& cells,
                                      unsigned jobs) {
  SweepOptions options;
  options.jobs = jobs;
  return SweepRunner(options).run(cells);
}

void expect_byte_identical(const std::vector<SweepCellResult>& serial,
                           const std::vector<SweepCellResult>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, parallel[i].index);
    EXPECT_EQ(series_digest(serial[i].run.series),
              series_digest(parallel[i].run.series))
        << "cell " << i;
    EXPECT_EQ(serial[i].run.killed, parallel[i].run.killed) << "cell " << i;
    EXPECT_EQ(serial[i].run.faults_by_kind, parallel[i].run.faults_by_kind)
        << "cell " << i;
    EXPECT_EQ(serial[i].run.slo_breaches, parallel[i].run.slo_breaches)
        << "cell " << i;
  }
}

/// One RFH run with every observer attached through run_policy: the
/// JSONL event trace, the metric dump and the causal flight record.
struct ObservedRun {
  PolicyRun run;
  std::string trace_jsonl;
  std::string metrics_json;
  std::uint64_t timeline_digest = 0;
  std::string timeline_jsonl;
};

ObservedRun run_observed(const Scenario& scenario) {
  std::ostringstream trace;
  JsonlSink sink(trace);
  MetricRegistry registry;
  TimelineStore timeline(scenario.sim.partitions);
  ObservedRun out;
  out.run = run_policy(scenario, PolicyKind::kRfh, {}, {}, &sink, &registry,
                       /*profiler=*/nullptr, /*checker=*/nullptr, &timeline);
  out.trace_jsonl = std::move(trace).str();
  std::ostringstream metrics;
  registry.write_json(metrics);
  out.metrics_json = std::move(metrics).str();
  out.timeline_digest = timeline.digest();
  std::ostringstream dump;
  timeline.dump_jsonl(dump);
  out.timeline_jsonl = std::move(dump).str();
  return out;
}

/// The scenario serially and with its epoch phases on 8 workers: the
/// same series, kills, faults and breaches, and the same trace, metric
/// dump and flight record, byte for byte. Returns the serial run.
ObservedRun expect_engine_jobs_invariant(const Scenario& scenario) {
  Scenario threaded = scenario;
  threaded.engine_jobs = 8;
  ObservedRun serial = run_observed(scenario);
  const ObservedRun parallel = run_observed(threaded);
  EXPECT_EQ(series_digest(serial.run.series),
            series_digest(parallel.run.series));
  EXPECT_EQ(serial.run.killed, parallel.run.killed);
  EXPECT_EQ(serial.run.faults_by_kind, parallel.run.faults_by_kind);
  EXPECT_EQ(serial.run.slo_breaches, parallel.run.slo_breaches);
  EXPECT_EQ(serial.trace_jsonl, parallel.trace_jsonl);
  EXPECT_EQ(serial.metrics_json, parallel.metrics_json);
  EXPECT_EQ(serial.timeline_digest, parallel.timeline_digest);
  EXPECT_EQ(serial.timeline_jsonl, parallel.timeline_jsonl);
  // Not vacuous: every observer recorded the run.
  EXPECT_FALSE(serial.trace_jsonl.empty());
  EXPECT_NE(serial.metrics_json.find("rfh-metrics/1"), std::string::npos);
  EXPECT_NE(serial.timeline_digest, 0u);
  EXPECT_FALSE(serial.timeline_jsonl.empty());
  return serial;
}

TEST(SweepDeterminismTest, ParallelSweepIsByteIdenticalToSerial) {
  const std::vector<SweepCell> cells = mixed_grid();
  expect_byte_identical(run_grid(cells, 1), run_grid(cells, 8));
}

TEST(SweepDeterminismTest, RepeatedParallelSweepsAgree) {
  std::vector<SweepCell> cells = mixed_grid();
  cells.resize(6);
  expect_byte_identical(run_grid(cells, 8), run_grid(cells, 8));
}

TEST(SweepDeterminismTest, ChurnFaultPlanSweepIsByteIdenticalToSerial) {
  // Rolling churn: one kill + one recovery every 3 epochs for the whole
  // run, exercising ring membership changes, promotions and the relay
  // table's liveness hooks inside every cell.
  std::vector<SweepCell> cells;
  for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
    SweepCell cell;
    cell.label = "churn seed=" + std::to_string(seed);
    cell.scenario = Scenario::paper_random_query();
    cell.scenario.epochs = 30;
    cell.scenario.sim.seed = seed;
    cell.scenario.world.seed = seed;
    FaultEvent churn;
    churn.kind = FaultKind::kChurn;
    churn.at = 2;
    churn.until = 30;
    churn.period = 3;
    churn.kill = 2;
    churn.recover = 1;
    cell.scenario.fault_plan.add(churn);
    cell.policy = PolicyKind::kRfh;
    cells.push_back(std::move(cell));
  }
  const std::vector<SweepCellResult> serial = run_grid(cells, 1);
  const std::vector<SweepCellResult> parallel = run_grid(cells, 8);
  expect_byte_identical(serial, parallel);
  // The plan actually injected faults, so the comparison was not vacuous.
  for (const SweepCellResult& r : serial) {
    EXPECT_GT(r.run.faults_injected, 0u);
  }
}

TEST(SweepDeterminismTest, TimelineAndSloBreachesByteIdenticalAcrossJobs) {
  // Armed SLO objectives + rolling churn: the flight record fills past
  // its ring capacities (exercising eviction + reservoir sampling) and
  // the watchdog actually fires, so the digests compared here are the
  // interesting ones.
  std::vector<SweepCell> cells;
  for (const std::uint64_t seed : {3ull, 13ull, 29ull}) {
    SweepCell cell;
    cell.label = "slo seed=" + std::to_string(seed);
    cell.scenario = Scenario::paper_random_query();
    cell.scenario.epochs = 40;
    cell.scenario.sim.seed = seed;
    cell.scenario.world.seed = seed;
    cell.scenario.slo.availability_floor = 0.999;
    cell.scenario.slo.migrations_per_epoch = 0.5;
    cell.scenario.slo.short_window = 3;
    cell.scenario.slo.long_window = 8;
    FaultEvent churn;
    churn.kind = FaultKind::kChurn;
    churn.at = 2;
    churn.until = 40;
    churn.period = 2;
    churn.kill = 2;
    churn.recover = 1;
    cell.scenario.fault_plan.add(churn);
    cell.policy = PolicyKind::kRfh;
    cells.push_back(std::move(cell));
  }
  const std::vector<SweepCellResult> serial = run_grid(cells, 1);
  expect_byte_identical(serial, run_grid(cells, 8));
  // Each cell's flight record is the same with the engine sharded, and
  // the grid as a whole breached at least one objective.
  std::size_t total_breaches = 0;
  for (const SweepCellResult& r : serial) {
    SCOPED_TRACE(r.label);
    const ObservedRun observed =
        expect_engine_jobs_invariant(cells[r.index].scenario);
    EXPECT_EQ(series_digest(observed.run.series),
              series_digest(r.run.series));
    total_breaches += r.run.slo_breaches.size();
  }
  EXPECT_GT(total_breaches, 0u);
}

TEST(SweepDeterminismTest, PooledComparisonMatchesSequentialForAllJobs) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 15;
  scenario.fault_plan = test::crash_plan(8, 10);
  const ComparativeResult reference = run_comparison(scenario, 1);
  for (const unsigned jobs : {2u, 4u, 8u}) {
    const ComparativeResult pooled = run_comparison(scenario, jobs);
    ASSERT_EQ(pooled.runs.size(), reference.runs.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < reference.runs.size(); ++i) {
      EXPECT_EQ(pooled.runs[i].kind, reference.runs[i].kind);
      EXPECT_EQ(series_digest(pooled.runs[i].series),
                series_digest(reference.runs[i].series))
          << "jobs " << jobs << " run " << i;
      EXPECT_EQ(pooled.runs[i].killed, reference.runs[i].killed);
    }
  }
}

// ---------------------------------------------------------------------
// Streaming workload (src/stream/): parallel sweeps must stay
// byte-identical (per-(epoch, DC) forked arrival streams), and the
// batch-side series must match a uniform run at the same seed exactly —
// the stream layer only *adds* fields, it never perturbs Eqs. 2-19.

std::vector<SweepCell> stream_grid() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t seed : {11ull, 23ull, 37ull}) {
    for (const PolicyKind policy : {PolicyKind::kRfh, PolicyKind::kRandom}) {
      SweepCell cell;
      cell.label = "stream seed=" + std::to_string(seed);
      cell.scenario = Scenario::paper_random_query();
      cell.scenario.workload = WorkloadKind::kStream;
      cell.scenario.epochs = 12;
      cell.scenario.sim.seed = seed;
      cell.scenario.world.seed = seed;
      // Enough pressure that waits and backpressure fields are nonzero.
      cell.scenario.stream.arrival_rate = 900.0;
      cell.scenario.stream.queue_cap = 4;
      cell.policy = policy;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

TEST(StreamDeterminismTest, ParallelStreamSweepIsByteIdenticalToSerial) {
  const std::vector<SweepCell> cells = stream_grid();
  const std::vector<SweepCellResult> serial = run_grid(cells, 1);
  expect_byte_identical(serial, run_grid(cells, 8));
  // The digest comparison was not vacuous: stream fields carry data.
  for (const SweepCellResult& r : serial) {
    double arrivals = 0.0;
    for (const EpochMetrics& m : r.run.series) arrivals += m.stream_arrivals;
    EXPECT_GT(arrivals, 0.0) << r.label;
  }
}

TEST(StreamDeterminismTest, BatchSideSeriesMatchesUniformRunExactly) {
  Scenario uniform = Scenario::paper_random_query();
  uniform.epochs = 15;
  Scenario stream = uniform;
  stream.workload = WorkloadKind::kStream;
  // Default arrival_rate == the uniform generator's Table I mean, so the
  // two runs must consume identical RNG streams and produce identical
  // batches.
  const PolicyRun batch_run = run_policy(uniform, PolicyKind::kRfh, {});
  const PolicyRun stream_run = run_policy(stream, PolicyKind::kRfh, {});
  ASSERT_EQ(batch_run.series.size(), stream_run.series.size());
  auto strip_stream_fields = [](std::vector<EpochMetrics> series) {
    for (EpochMetrics& m : series) {
      m.stream_arrivals = 0.0;
      m.stream_served = 0.0;
      m.stream_blocked = 0.0;
      m.stream_dropped = 0.0;
      m.stream_max_queue_depth = 0;
      m.stream_wait_mean_ms = 0.0;
      m.stream_p50_ms = 0.0;
      m.stream_p99_ms = 0.0;
      m.stream_p999_ms = 0.0;
    }
    return series;
  };
  EXPECT_EQ(series_digest(strip_stream_fields(batch_run.series)),
            series_digest(strip_stream_fields(stream_run.series)));
  // Aggregation direction of the equivalence: stream arrivals disaggregate
  // the batch totals, so summed back up they must match them (within FP
  // accumulation) — and the batch run itself carried no stream data.
  for (std::size_t i = 0; i < stream_run.series.size(); ++i) {
    EXPECT_EQ(batch_run.series[i].stream_arrivals, 0.0);
    EXPECT_GT(stream_run.series[i].stream_arrivals, 0.0) << "epoch " << i;
  }
}

// ---------------------------------------------------------------------
// Intra-epoch parallel engine (Simulation::set_jobs): sharding the epoch
// phases across a pool must be byte-identical to the serial engine —
// series digest, causal timeline, SLO breach sequence — on a 10k-server
// world under rolling churn, for every jobs value.

Scenario big_churn_scenario() {
  Scenario scenario = Scenario::paper_random_query();
  // 10 paper DCs x 10 rooms x 10 racks x 10 servers = 10,000 servers.
  scenario.world.rooms_per_datacenter = 10;
  scenario.world.racks_per_room = 10;
  scenario.world.servers_per_rack = 10;
  scenario.epochs = 10;
  scenario.sim.partitions = 256;
  scenario.slo.availability_floor = 0.999;
  scenario.slo.migrations_per_epoch = 0.5;
  scenario.slo.short_window = 3;
  scenario.slo.long_window = 6;
  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 2;
  churn.until = 10;
  churn.period = 2;
  churn.kill = 3;
  churn.recover = 2;
  scenario.fault_plan.add(churn);
  return scenario;
}

TEST(EngineJobsDeterminismTest, TenThousandServerChurnByteIdenticalAtJobs8) {
  const ObservedRun serial = expect_engine_jobs_invariant(big_churn_scenario());
  // Not vacuous: churn actually fired on the big world.
  EXPECT_GT(serial.run.faults_injected, 0u);
  EXPECT_FALSE(serial.run.killed.empty());
}

TEST(EngineJobsDeterminismTest, HostileCorpusScenariosByteIdenticalAtJobs8) {
  // Every hostile scenario in the committed corpus — correlated zone
  // outage, ring-splitting partition, cascading overload, Byzantine
  // stale stats, link flap + churn under stream load — must produce
  // byte-identical output with the epoch phases sharded across 8
  // workers. These plans exercise exactly the mutation paths (correlated
  // kills, link-state flips, stats freezes) most likely to be
  // order-sensitive under sharding.
  const char* const hostile[] = {
      "zone_outage_regional", "ring_split_partition", "cascading_overload",
      "byzantine_stale_stats", "flap_churn_stream"};
  for (const char* name : hostile) {
    SCOPED_TRACE(name);
    const std::string path = std::string(RFH_TEST_DATA_DIR) + "/corpus/" +
                             name + ".json";
    const CheckCase::ParseResult parsed = CheckCase::load(path);
    ASSERT_TRUE(parsed.ok) << path << ": " << parsed.error;
    const ObservedRun serial =
        expect_engine_jobs_invariant(parsed.value.to_scenario());
    // Not vacuous: every hostile plan actually injected its faults.
    EXPECT_GT(serial.run.faults_injected, 0u);
  }
}

TEST(EngineJobsDeterminismTest, EveryJobsValueProducesTheSameSeries) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 25;
  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 2;
  churn.until = 25;
  churn.period = 3;
  churn.kill = 2;
  churn.recover = 2;
  scenario.fault_plan.add(churn);

  const PolicyRun reference = run_policy(scenario, PolicyKind::kRfh);
  // 0 resolves to one worker per hardware thread; 1 is the serial engine
  // again through the set_jobs path; the rest exercise shard counts both
  // below and above the batch's run count.
  for (const unsigned jobs : {0u, 1u, 2u, 3u, 5u, 8u}) {
    Scenario threaded = scenario;
    threaded.engine_jobs = jobs;
    const PolicyRun run = run_policy(threaded, PolicyKind::kRfh);
    EXPECT_EQ(series_digest(run.series), series_digest(reference.series))
        << "jobs " << jobs;
    EXPECT_EQ(run.killed, reference.killed) << "jobs " << jobs;
  }
}

TEST(EngineJobsDeterminismTest, ShuffledBatchRunsAsItsCanonicalForm) {
  // EpochTraffic::set_demand puts every batch in canonical order, so a
  // batch shuffled and split into equal-key pieces (integer counts, so
  // every merge sum is exact) must run exactly like the canonical batch
  // a generator emits — same reports, traffic cells and stats — serial
  // and sharded.
  constexpr std::uint32_t kEpochs = 8;
  SimConfig config;
  config.seed = 5;
  WorkloadParams params;
  params.partitions = config.partitions;
  params.mean_queries_per_epoch = 600.0;
  UniformWorkload generator(params);
  Rng draw(17);
  std::vector<QueryBatch> canonical;
  std::vector<QueryBatch> shuffled;
  for (Epoch e = 0; e < kEpochs; ++e) {
    canonical.push_back(generator.generate(e, draw));
    QueryBatch pieces;
    for (const QueryFlow& flow : canonical.back()) {
      const double head = std::floor(flow.queries / 2.0);
      if (head > 0.0) {
        pieces.push_back(QueryFlow{flow.partition, flow.requester, head});
      }
      pieces.push_back(
          QueryFlow{flow.partition, flow.requester, flow.queries - head});
    }
    for (std::size_t i = pieces.size(); i > 1; --i) {
      std::swap(pieces[i - 1], pieces[draw.uniform(i)]);
    }
    shuffled.push_back(std::move(pieces));
  }

  // Near-requester placement, so the stats keep (and the comparison
  // below reads) the requester rows.
  RfhPolicy::Options near_requester;
  near_requester.placement = RfhPolicy::Options::Placement::kNearRequester;
  const auto make = [&](std::vector<QueryBatch> schedule, unsigned jobs) {
    auto sim = std::make_unique<Simulation>(
        build_paper_world(test::uniform_world_options()), config,
        std::make_unique<test::ScheduledWorkload>(std::move(schedule)),
        std::make_unique<RfhPolicy>(near_requester));
    sim->set_jobs(jobs);
    return sim;
  };
  for (const unsigned jobs : {1u, 4u}) {
    auto sim = make(shuffled, jobs);
    auto sorted = make(canonical, 1);
    for (Epoch e = 0; e < kEpochs; ++e) {
      const EpochReport got = sim->step();
      const EpochReport want = sorted->step();
      SCOPED_TRACE("jobs " + std::to_string(jobs) + " epoch " +
                   std::to_string(e));
      EXPECT_EQ(got.total_queries, want.total_queries);
      EXPECT_EQ(got.unserved_queries, want.unserved_queries);
      EXPECT_EQ(got.mean_path_length, want.mean_path_length);
      EXPECT_EQ(got.replications, want.replications);
      EXPECT_EQ(got.migrations, want.migrations);
      EXPECT_EQ(got.suicides, want.suicides);
      EXPECT_EQ(got.dropped_actions, want.dropped_actions);
      EXPECT_EQ(got.dropped_by_reason, want.dropped_by_reason);
      EXPECT_EQ(got.replication_cost, want.replication_cost);
      EXPECT_EQ(got.migration_cost, want.migration_cost);
      EXPECT_EQ(got.total_replicas, want.total_replicas);
      for (std::uint32_t p = 0; p < config.partitions; ++p) {
        const PartitionId pid{p};
        const std::span<const TrafficCell> a = sim->traffic().cells(pid);
        const std::span<const TrafficCell> b = sorted->traffic().cells(pid);
        ASSERT_EQ(a.size(), b.size()) << "partition " << p;
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].server, b[i].server);
          EXPECT_EQ(a[i].node, b[i].node);
          EXPECT_EQ(a[i].served, b[i].served);
        }
        EXPECT_EQ(sim->stats().avg_query(pid), sorted->stats().avg_query(pid));
        std::vector<StatCell> x;
        std::vector<StatCell> y;
        sim->stats().for_each_node_cell(
            pid, [&](const StatCell& cell) { x.push_back(cell); });
        sorted->stats().for_each_node_cell(
            pid, [&](const StatCell& cell) { y.push_back(cell); });
        ASSERT_EQ(x.size(), y.size()) << "partition " << p;
        for (std::size_t i = 0; i < x.size(); ++i) {
          EXPECT_EQ(x[i].server, y[i].server);
          EXPECT_EQ(x[i].ewma, y[i].ewma);
        }
        for (const Datacenter& dc : sim->topology().datacenters()) {
          EXPECT_EQ(sim->stats().requester_queries(pid, dc.id),
                    sorted->stats().requester_queries(pid, dc.id));
        }
      }
      EXPECT_GT(got.total_queries, 0.0);
    }
    // Not vacuous: the policy acted on the stats it was fed.
    EXPECT_GT(sim->cumulative_replications(), 0u);
  }
}

TEST(RedundancyDeterminismTest, ReplicaModeIsByteIdenticalToDefault) {
  // Threading the redundancy axis through the engine must leave replica
  // runs untouched: reconstruction_threshold() == 1 makes every EC scale
  // an FP no-op and the zone rule never engages. An explicitly-tagged
  // replica run with nonzero (ignored) ec parameters must digest
  // identically to the untouched default, churn included.
  Scenario base = Scenario::paper_random_query();
  base.epochs = 30;
  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 2;
  churn.until = 30;
  churn.period = 3;
  churn.kill = 2;
  churn.recover = 2;
  base.fault_plan.add(churn);
  Scenario tagged = base;
  tagged.sim.redundancy = RedundancyMode::kReplica;
  tagged.sim.ec_k = 8;
  tagged.sim.ec_m = 3;
  const PolicyRun a = run_policy(base, PolicyKind::kRfh);
  const PolicyRun b = run_policy(tagged, PolicyKind::kRfh);
  EXPECT_EQ(series_digest(a.series), series_digest(b.series));
  EXPECT_EQ(a.killed, b.killed);
}

TEST(RedundancyDeterminismTest, ErasureRunsAreReproducible) {
  // Same seed, same ec(k,m) → the same series, and a different (k, m)
  // actually changes the run (the axis is live, not decorative).
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 25;
  scenario.sim.redundancy = RedundancyMode::kErasure;
  scenario.sim.ec_k = 4;
  scenario.sim.ec_m = 2;
  const PolicyRun a = run_policy(scenario, PolicyKind::kRfh);
  const PolicyRun b = run_policy(scenario, PolicyKind::kRfh);
  EXPECT_EQ(series_digest(a.series), series_digest(b.series));
  Scenario wider = scenario;
  wider.sim.ec_k = 2;
  wider.sim.ec_m = 1;
  const PolicyRun c = run_policy(wider, PolicyKind::kRfh);
  EXPECT_NE(series_digest(a.series), series_digest(c.series));
}

}  // namespace
}  // namespace rfh
