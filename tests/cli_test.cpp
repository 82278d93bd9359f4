#include "harness/cli.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "obs/events.h"

namespace rfh {
namespace {

CliParseResult parse(std::vector<const char*> args) {
  return parse_cli(std::span<const char* const>(args.data(), args.size()));
}

TEST(Cli, DefaultsMatchPaperRandomQuery) {
  const CliParseResult r = parse({});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.policy, PolicyKind::kRfh);
  EXPECT_FALSE(r.options.compare);
  EXPECT_FALSE(r.options.quiet);
  EXPECT_EQ(r.options.metric, "utilization");
  EXPECT_EQ(r.options.scenario.epochs, 250u);
  EXPECT_TRUE(r.options.scenario.fault_plan.empty());
}

TEST(Cli, ParsesEveryPolicy) {
  EXPECT_EQ(parse({"--policy=rfh"}).options.policy, PolicyKind::kRfh);
  EXPECT_EQ(parse({"--policy=random"}).options.policy, PolicyKind::kRandom);
  EXPECT_EQ(parse({"--policy=owner"}).options.policy, PolicyKind::kOwner);
  EXPECT_EQ(parse({"--policy=request"}).options.policy, PolicyKind::kRequest);
  EXPECT_FALSE(parse({"--policy=magic"}).ok);
}

TEST(Cli, WorkloadFlashSwitchesHorizon) {
  const CliParseResult r = parse({"--workload=flash"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.options.scenario.workload, WorkloadKind::kFlashCrowd);
  EXPECT_EQ(r.options.scenario.epochs, 400u);
}

TEST(Cli, ExplicitEpochsOverrideTheFlashDefault) {
  const CliParseResult r = parse({"--epochs=77", "--workload=flash"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.options.scenario.epochs, 77u);
}

TEST(Cli, NumericFlags) {
  const CliParseResult r =
      parse({"--epochs=123", "--seed=9", "--partitions=32",
             "--write-fraction=0.25"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.scenario.epochs, 123u);
  EXPECT_EQ(r.options.scenario.sim.seed, 9u);
  EXPECT_EQ(r.options.scenario.world.seed, 9u);
  EXPECT_EQ(r.options.scenario.sim.partitions, 32u);
  EXPECT_DOUBLE_EQ(r.options.scenario.write_fraction, 0.25);
}

TEST(Cli, RejectsMalformedNumbers) {
  EXPECT_FALSE(parse({"--epochs=0"}).ok);
  EXPECT_FALSE(parse({"--epochs=ten"}).ok);
  EXPECT_FALSE(parse({"--partitions=0"}).ok);
  // Past 2^32 - 1 is malformed, not narrowed: 2^32 + 3 epochs would run
  // 3, and 2^32 + 64 partitions would build 64. The error names the flag.
  for (const char* arg : {"--epochs=4294967299", "--epochs=4294967296",
                          "--partitions=4294967360",
                          "--partitions=4294967296"}) {
    const CliParseResult r = parse({arg});
    EXPECT_FALSE(r.ok) << arg;
    const std::string flag(arg, std::strchr(arg, '='));
    EXPECT_EQ(r.error.rfind(flag, 0), 0u) << r.error;
  }
  EXPECT_FALSE(parse({"--seed=abc"}).ok);
  EXPECT_FALSE(parse({"--write-fraction=1.5"}).ok);
  EXPECT_FALSE(parse({"--write-fraction=-0.1"}).ok);
  // nan slips past every range check: each comparison is false.
  EXPECT_FALSE(parse({"--write-fraction=nan"}).ok);
}

TEST(Cli, JobsAcceptsAutoAndExplicitCounts) {
  EXPECT_EQ(parse({"--jobs=auto"}).options.jobs, 0u);
  EXPECT_EQ(parse({"--jobs=1"}).options.jobs, 1u);
  EXPECT_EQ(parse({"--jobs=16"}).options.jobs, 16u);
  EXPECT_EQ(parse({"--jobs=1024"}).options.jobs, 1024u);
}

TEST(Cli, JobsRejectsZeroNegativeAndGarbage) {
  // 0 is not a valid worker count — 'auto' is the explicit spelling for
  // "one worker per hardware thread", so a literal 0 is most likely a
  // script bug and must not silently mean something else.
  EXPECT_FALSE(parse({"--jobs=0"}).ok);
  EXPECT_FALSE(parse({"--jobs=-4"}).ok);
  EXPECT_FALSE(parse({"--jobs=four"}).ok);
  EXPECT_FALSE(parse({"--jobs="}).ok);
  EXPECT_FALSE(parse({"--jobs=2x"}).ok);
  EXPECT_FALSE(parse({"--jobs=1025"}).ok);  // above the sanity cap
}

TEST(Cli, TableOneThresholdsAreRangeChecked) {
  // In-range values parse and land in the scenario.
  const CliParseResult r =
      parse({"--alpha=0.3", "--beta=1.5", "--gamma=2.5", "--delta=0.1",
             "--mu=0.5", "--phi=1"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.options.scenario.sim.alpha, 0.3);
  EXPECT_DOUBLE_EQ(r.options.scenario.sim.beta, 1.5);
  EXPECT_DOUBLE_EQ(r.options.scenario.sim.gamma, 2.5);
  EXPECT_DOUBLE_EQ(r.options.scenario.sim.delta, 0.1);
  EXPECT_DOUBLE_EQ(r.options.scenario.sim.mu, 0.5);
  EXPECT_DOUBLE_EQ(r.options.scenario.sim.storage_limit, 1.0);

  // alpha is an EWMA weight: the open interval (0, 1).
  EXPECT_FALSE(parse({"--alpha=0"}).ok);
  EXPECT_FALSE(parse({"--alpha=1"}).ok);
  EXPECT_FALSE(parse({"--alpha=-0.2"}).ok);
  EXPECT_FALSE(parse({"--alpha=nope"}).ok);
  // beta / gamma must be positive, delta / mu non-negative.
  EXPECT_FALSE(parse({"--beta=0"}).ok);
  EXPECT_FALSE(parse({"--beta=-1"}).ok);
  EXPECT_FALSE(parse({"--gamma=0"}).ok);
  EXPECT_FALSE(parse({"--delta=-0.1"}).ok);
  EXPECT_FALSE(parse({"--mu=-1"}).ok);
  // phi is a storage fraction: the half-open interval (0, 1].
  EXPECT_FALSE(parse({"--phi=0"}).ok);
  EXPECT_FALSE(parse({"--phi=1.2"}).ok);
  EXPECT_FALSE(parse({"--phi=-0.5"}).ok);
}

TEST(Cli, ConflictingDuplicateFlagsAreErrors) {
  // Last-one-wins would silently discard the user's earlier intent.
  EXPECT_FALSE(parse({"--epochs=10", "--epochs=20"}).ok);
  EXPECT_FALSE(parse({"--seed=1", "--seed=2"}).ok);
  EXPECT_FALSE(parse({"--policy=rfh", "--policy=random"}).ok);
  EXPECT_FALSE(parse({"--jobs=2", "--jobs=4"}).ok);
  const CliParseResult r = parse({"--alpha=0.2", "--alpha=0.9"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("conflicting duplicate"), std::string::npos);
}

TEST(Cli, IdenticalDuplicateFlagsAreHarmless) {
  const CliParseResult r = parse({"--epochs=10", "--epochs=10"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.scenario.epochs, 10u);
}

TEST(Cli, KillStaysRepeatableWithDifferentValues) {
  const CliParseResult r = parse({"--kill=3@5", "--kill=2@9"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.scenario.fault_plan.size(), 2u);
}

TEST(Cli, KillEventsAreRepeatable) {
  // Each --kill is a `crash` line of the scenario's fault plan, in flag
  // order.
  const CliParseResult r = parse({"--kill=30@290", "--kill=5@10"});
  ASSERT_TRUE(r.ok) << r.error;
  const FaultPlan::ParseResult text = FaultPlan::parse(
      "crash at=290 count=30\n"
      "crash at=10 count=5\n");
  ASSERT_TRUE(text.ok) << text.error;
  EXPECT_EQ(r.options.scenario.fault_plan, text.plan);
  // --kill combines with --compare: every policy faces the same plan.
  const CliParseResult compare = parse({"--kill=30@290", "--compare"});
  ASSERT_TRUE(compare.ok) << compare.error;
  EXPECT_EQ(compare.options.scenario.fault_plan.size(), 1u);
}

TEST(Cli, RejectsMalformedKill) {
  EXPECT_FALSE(parse({"--kill=30"}).ok);
  EXPECT_FALSE(parse({"--kill=@5"}).ok);
  EXPECT_FALSE(parse({"--kill=0@5"}).ok);
  EXPECT_FALSE(parse({"--kill=a@b"}).ok);
  // A count or epoch past 2^32 - 1 is malformed, not narrowed (2^32 + 5
  // would kill at epoch 5).
  for (const char* arg : {"--kill=30@4294967301", "--kill=4294967326@5",
                          "--kill=30@4294967296"}) {
    const CliParseResult r = parse({arg});
    EXPECT_FALSE(r.ok) << arg;
    EXPECT_EQ(r.error.rfind("--kill", 0), 0u) << r.error;
  }
}

TEST(Cli, MetricsAreValidated) {
  for (const std::string& name : metric_names()) {
    const CliParseResult r = parse({("--metric=" + name).c_str()});
    EXPECT_TRUE(r.ok) << name;
    EXPECT_EQ(r.options.metric, name);
  }
  EXPECT_FALSE(parse({"--metric=nonsense"}).ok);
}

TEST(Cli, BooleanFlags) {
  const CliParseResult r = parse({"--compare", "--quiet"});
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.options.compare);
  EXPECT_TRUE(r.options.quiet);
}

TEST(Cli, UnknownArgumentIsAnError) {
  const CliParseResult r = parse({"--frobnicate"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("frobnicate"), std::string::npos);
}

TEST(Cli, MetricValueExtractsEveryKnownName) {
  EpochMetrics m;
  m.utilization = 0.5;
  m.total_replicas = 7;
  m.path_length = 2.5;
  m.load_imbalance = 1.1;
  m.latency_mean_ms = 42.0;
  m.sla_attainment = 0.99;
  m.replication_cost_total = 100.0;
  m.migrations_total = 3;
  m.mean_replica_lag = 1.5;
  m.stale_read_fraction = 0.2;
  m.diversity_level = 4.5;
  m.dropped_this_epoch = 6;
  m.stream_max_queue_depth = 9;
  m.stream_dropped = 11.0;
  m.stream_wait_mean_ms = 12.5;
  m.stream_p99_ms = 250.0;
  bool ok = false;
  EXPECT_DOUBLE_EQ(metric_value(m, "utilization", &ok), 0.5);
  EXPECT_DOUBLE_EQ(metric_value(m, "replicas", &ok), 7.0);
  EXPECT_DOUBLE_EQ(metric_value(m, "path", &ok), 2.5);
  EXPECT_DOUBLE_EQ(metric_value(m, "imbalance", &ok), 1.1);
  EXPECT_DOUBLE_EQ(metric_value(m, "latency", &ok), 42.0);
  EXPECT_DOUBLE_EQ(metric_value(m, "sla", &ok), 0.99);
  EXPECT_DOUBLE_EQ(metric_value(m, "cost", &ok), 100.0);
  EXPECT_DOUBLE_EQ(metric_value(m, "migrations", &ok), 3.0);
  EXPECT_DOUBLE_EQ(metric_value(m, "lag", &ok), 1.5);
  EXPECT_DOUBLE_EQ(metric_value(m, "stale", &ok), 0.2);
  EXPECT_DOUBLE_EQ(metric_value(m, "diversity", &ok), 4.5);
  EXPECT_DOUBLE_EQ(metric_value(m, "dropped", &ok), 6.0);
  EXPECT_DOUBLE_EQ(metric_value(m, "qdepth", &ok), 9.0);
  EXPECT_DOUBLE_EQ(metric_value(m, "qdrop", &ok), 11.0);
  EXPECT_DOUBLE_EQ(metric_value(m, "qwait", &ok), 12.5);
  EXPECT_DOUBLE_EQ(metric_value(m, "qp99", &ok), 250.0);
  EXPECT_TRUE(ok);
  (void)metric_value(m, "bogus", &ok);
  EXPECT_FALSE(ok);
}

TEST(Cli, TraceFlags) {
  const CliParseResult r =
      parse({"--trace-out=run.jsonl", "--trace-format=chrome",
             "--trace-filter=ReplicaAdded,ActionDropped"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.trace_out, "run.jsonl");
  EXPECT_EQ(r.options.trace_format, TraceFormat::kChrome);
  EXPECT_EQ(r.options.trace_filter, "ReplicaAdded,ActionDropped");
}

TEST(Cli, TraceDefaultsToJsonlAndNoFilter) {
  const CliParseResult r = parse({"--trace-out=t.jsonl"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.options.trace_format, TraceFormat::kJsonl);
  EXPECT_TRUE(r.options.trace_filter.empty());
}

TEST(Cli, TraceRejectsBadFormatEmptyPathAndCompare) {
  EXPECT_FALSE(parse({"--trace-format=xml"}).ok);
  EXPECT_FALSE(parse({"--trace-out="}).ok);
  EXPECT_FALSE(parse({"--trace-out=t.jsonl", "--compare"}).ok);
  // --compare alone stays legal.
  EXPECT_TRUE(parse({"--compare"}).ok);
}

TEST(Cli, TraceFilterRejectsUnknownEventNames) {
  const CliParseResult r = parse(
      {"--trace-out=t.jsonl", "--trace-filter=ReplicaAdded, ReplicaAded"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--trace-filter"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("'ReplicaAded'"), std::string::npos) << r.error;
  // Every name of the event taxonomy is accepted, spaces trimmed.
  std::string every = "--trace-filter=";
  for (std::size_t i = 0; i < std::variant_size_v<Event>; ++i) {
    every += event_index_name(i);
    every += ", ";
  }
  const CliParseResult all = parse({every.c_str()});
  ASSERT_TRUE(all.ok) << all.error;
}

TEST(Cli, MetricsFlags) {
  const CliParseResult r =
      parse({"--metrics-out=metrics.json", "--metrics-format=json"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.metrics_out, "metrics.json");
  EXPECT_EQ(r.options.metrics_format, MetricsFormat::kJson);
}

TEST(Cli, MetricsDefaultsToPrometheusAndOff) {
  const CliParseResult defaults = parse({});
  ASSERT_TRUE(defaults.ok);
  EXPECT_TRUE(defaults.options.metrics_out.empty());
  EXPECT_EQ(defaults.options.metrics_format, MetricsFormat::kProm);
  EXPECT_FALSE(defaults.options.profile);

  const CliParseResult r = parse({"--metrics-out=m.prom"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.options.metrics_format, MetricsFormat::kProm);
}

TEST(Cli, ProfileFlag) {
  const CliParseResult r = parse({"--profile", "--quiet"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.options.profile);
  // Profiling composes with tracing (PhaseSpans land in the trace).
  EXPECT_TRUE(parse({"--profile", "--trace-out=t.json",
                     "--trace-format=chrome"})
                  .ok);
}

TEST(Cli, TelemetryRejectsBadInputAndCompare) {
  EXPECT_FALSE(parse({"--metrics-out="}).ok);
  EXPECT_FALSE(parse({"--metrics-format=xml"}).ok);
  EXPECT_FALSE(parse({"--metrics-out=m.prom", "--compare"}).ok);
  EXPECT_FALSE(parse({"--profile", "--compare"}).ok);
}

TEST(Cli, MetricsOutDashMeansStdout) {
  const CliParseResult r = parse({"--metrics-out=-"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.metrics_out, "-");
}

TEST(Cli, StreamWorkloadAndFlags) {
  const CliParseResult r =
      parse({"--workload=stream", "--arrival-rate=600", "--queue-cap=16",
             "--service-cv=2"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.scenario.workload, WorkloadKind::kStream);
  EXPECT_DOUBLE_EQ(r.options.scenario.stream.arrival_rate, 600.0);
  EXPECT_EQ(r.options.scenario.stream.queue_cap, 16u);
  EXPECT_DOUBLE_EQ(r.options.scenario.stream.service_cv, 2.0);
}

TEST(Cli, StreamDefaultsMatchTableOne) {
  const CliParseResult r = parse({"--workload=stream"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.options.scenario.stream.arrival_rate, 300.0);
  EXPECT_EQ(r.options.scenario.stream.queue_cap, 32u);
  EXPECT_DOUBLE_EQ(r.options.scenario.stream.service_cv, 1.0);
}

TEST(Cli, StreamFlagsRequireStreamWorkload) {
  // Flag order must not matter: the check runs after the whole parse.
  EXPECT_FALSE(parse({"--arrival-rate=600"}).ok);
  EXPECT_FALSE(parse({"--queue-cap=16", "--workload=flash"}).ok);
  EXPECT_FALSE(parse({"--service-cv=2", "--workload=uniform"}).ok);
  EXPECT_TRUE(parse({"--arrival-rate=600", "--workload=stream"}).ok);
}

TEST(Cli, StreamFlagsAreRangeChecked) {
  EXPECT_FALSE(parse({"--workload=stream", "--arrival-rate=0"}).ok);
  EXPECT_FALSE(parse({"--workload=stream", "--arrival-rate=-5"}).ok);
  EXPECT_FALSE(parse({"--workload=stream", "--arrival-rate=lots"}).ok);
  // inf would reach Rng::poisson as the stream's mean.
  EXPECT_FALSE(parse({"--workload=stream", "--arrival-rate=inf"}).ok);
  EXPECT_FALSE(parse({"--workload=stream", "--queue-cap=0"}).ok);
  EXPECT_FALSE(parse({"--workload=stream", "--queue-cap=1000001"}).ok);
  EXPECT_FALSE(parse({"--workload=stream", "--service-cv=-1"}).ok);
  // cv = 0 (deterministic service) is legal.
  EXPECT_TRUE(parse({"--workload=stream", "--service-cv=0"}).ok);
}

}  // namespace
}  // namespace rfh
