#include "harness/cli.h"

#include <cstring>
#include <map>
#include <variant>

#include "common/parse.h"
#include "obs/sinks.h"

namespace rfh {

namespace {

bool consume(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  value = arg + len;
  return true;
}

bool is_event_name(std::string_view name) {
  for (std::size_t i = 0; i < std::variant_size_v<Event>; ++i) {
    if (name == event_index_name(i)) return true;
  }
  return false;
}

/// The Table I coefficient a --NAME=value flag sets (value in `value`),
/// or nullptr when `arg` is none of them.
double* table_one_flag(const char* arg, SimConfig& sim, std::string& value) {
  const std::pair<const char*, double*> flags[] = {
      {"--alpha=", &sim.alpha}, {"--beta=", &sim.beta},
      {"--gamma=", &sim.gamma}, {"--delta=", &sim.delta},
      {"--mu=", &sim.mu},       {"--phi=", &sim.storage_limit}};
  for (const auto& [name, field] : flags) {
    if (consume(arg, name, value)) return field;
  }
  return nullptr;
}

}  // namespace

std::optional<unsigned> parse_jobs(std::string_view text) {
  if (text == "auto") return 0u;  // exec/sweep.h: 0 = one per hardware thread
  std::uint64_t jobs = 0;
  if (!parse_uint(text, jobs) || jobs == 0 || jobs > 1024) return std::nullopt;
  return static_cast<unsigned>(jobs);
}

std::vector<std::string> metric_names() {
  return {"utilization", "replicas", "path",   "imbalance", "latency",
          "sla",         "cost",     "migrations", "lag",   "stale",
          "diversity",   "dropped",  "starved", "qdepth",   "qdrop",
          "qwait",       "qp99"};
}

double metric_value(const EpochMetrics& m, const std::string& metric,
                    bool* ok) {
  *ok = true;
  if (metric == "utilization") return m.utilization;
  if (metric == "replicas") return m.total_replicas;
  if (metric == "path") return m.path_length;
  if (metric == "imbalance") return m.load_imbalance;
  if (metric == "latency") return m.latency_mean_ms;
  if (metric == "sla") return m.sla_attainment;
  if (metric == "cost") return m.replication_cost_total;
  if (metric == "migrations") return m.migrations_total;
  if (metric == "lag") return m.mean_replica_lag;
  if (metric == "stale") return m.stale_read_fraction;
  if (metric == "diversity") return m.diversity_level;
  if (metric == "dropped") return m.dropped_this_epoch;
  if (metric == "starved") return m.repairs_starved;
  if (metric == "qdepth") return m.stream_max_queue_depth;
  if (metric == "qdrop") return m.stream_dropped;
  if (metric == "qwait") return m.stream_wait_mean_ms;
  if (metric == "qp99") return m.stream_p99_ms;
  *ok = false;
  return 0.0;
}

CliParseResult parse_cli(std::span<const char* const> args) {
  CliParseResult result;
  CliOptions& options = result.options;
  auto fail = [&](std::string message) {
    result.ok = false;
    result.error = std::move(message);
    return result;
  };

  // Last-one-wins between *conflicting* duplicates silently discards the
  // user's earlier intent; repeating the identical value is harmless.
  // --kill is the one legitimately repeatable value flag.
  std::map<std::string, std::string> seen;
  // Last stream-layer flag encountered, for the workload=stream check.
  const char* stream_flag = nullptr;
  // Whether --jobs appeared: single-policy runs thread the engine only on
  // explicit request (the default stays serial), while --compare always
  // consults options.jobs for its policy pool.
  bool jobs_seen = false;
  for (const char* arg : args) {
    if (std::strncmp(arg, "--", 2) == 0) {
      if (const char* eq = std::strchr(arg, '=')) {
        std::string name(arg, eq);
        if (name != "--kill") {
          const auto [it, inserted] = seen.emplace(name, eq + 1);
          if (!inserted && it->second != eq + 1) {
            return fail("conflicting duplicate " + name + "=" + (eq + 1) +
                        " (already set to '" + it->second + "')");
          }
        }
      }
    }
    std::string value;
    if (consume(arg, "--policy=", value)) {
      if (value == "rfh") options.policy = PolicyKind::kRfh;
      else if (value == "random") options.policy = PolicyKind::kRandom;
      else if (value == "owner") options.policy = PolicyKind::kOwner;
      else if (value == "request") options.policy = PolicyKind::kRequest;
      else return fail("unknown policy '" + value + "'");
    } else if (consume(arg, "--workload=", value)) {
      if (value == "uniform") {
        options.scenario.workload = WorkloadKind::kUniform;
      } else if (value == "flash") {
        const Epoch epochs = options.scenario.epochs;
        options.scenario.workload = WorkloadKind::kFlashCrowd;
        options.scenario.epochs =
            epochs == Scenario::paper_random_query().epochs
                ? Scenario::paper_flash_crowd().epochs
                : epochs;
      } else if (value == "hotspot") {
        options.scenario.workload = WorkloadKind::kHotspotShift;
      } else if (value == "stream") {
        options.scenario.workload = WorkloadKind::kStream;
      } else {
        return fail("unknown workload '" + value + "'");
      }
    } else if (consume(arg, "--epochs=", value)) {
      std::uint64_t epochs = 0;
      if (!parse_uint(value, epochs) || epochs == 0) {
        return fail("--epochs expects a positive integer");
      }
      options.scenario.epochs = static_cast<Epoch>(epochs);
    } else if (consume(arg, "--seed=", value)) {
      std::uint64_t seed = 0;
      if (!parse_uint(value, seed)) return fail("--seed expects an integer");
      options.scenario.sim.seed = seed;
      options.scenario.world.seed = seed;
    } else if (consume(arg, "--partitions=", value)) {
      std::uint64_t partitions = 0;
      if (!parse_uint(value, partitions)) {
        return fail("--partitions expects a positive integer");
      }
      options.scenario.sim.partitions =
          static_cast<std::uint32_t>(partitions);
    } else if (consume(arg, "--write-fraction=", value)) {
      double fraction = 0.0;
      if (!parse_finite(value, fraction) || fraction < 0.0 ||
          fraction > 1.0) {
        return fail("--write-fraction expects a number in [0, 1]");
      }
      options.scenario.write_fraction = fraction;
    } else if (consume(arg, "--kill=", value)) {
      const std::size_t at = value.find('@');
      std::uint64_t n = 0;
      std::uint64_t epoch = 0;
      if (at == std::string::npos ||
          !parse_uint(value.substr(0, at), n) ||
          !parse_uint(value.substr(at + 1), epoch) || n == 0) {
        return fail("--kill expects N@E with positive N");
      }
      FailureEvent event;
      event.kill_random = static_cast<std::uint32_t>(n);
      event.epoch = static_cast<Epoch>(epoch);
      options.failures.push_back(event);
    } else if (consume(arg, "--jobs=", value)) {
      jobs_seen = true;
      const std::optional<unsigned> jobs = parse_jobs(value);
      if (!jobs) return fail(std::string(kJobsError));
      options.jobs = *jobs;
    } else if (double* coefficient =
                   table_one_flag(arg, options.scenario.sim, value)) {
      // Range rules are validate(SimConfig)'s, checked once below.
      if (!parse_finite(value, *coefficient)) {
        return fail(std::string(arg, std::strchr(arg, '=')) +
                    " expects a number, got '" + value + "'");
      }
    } else if (consume(arg, "--redundancy=", value)) {
      std::string err;
      if (!parse_redundancy(value, options.scenario.sim, err)) {
        return fail("--redundancy expects replica or ec(k,m) with k >= 2, "
                    "m >= 1, k + m <= 16, got '" + value + "'");
      }
    } else if (consume(arg, "--arrival-rate=", value)) {
      double v = 0.0;
      if (!parse_finite(value, v) || !(v > 0.0)) {
        return fail("--arrival-rate expects a positive mean arrivals per "
                    "epoch, got '" + value + "'");
      }
      options.scenario.stream.arrival_rate = v;
      stream_flag = "--arrival-rate";
    } else if (consume(arg, "--queue-cap=", value)) {
      std::uint64_t v = 0;
      if (!parse_uint(value, v) || v == 0 || v > 1000000) {
        return fail("--queue-cap expects an integer in [1, 1000000], "
                    "got '" + value + "'");
      }
      options.scenario.stream.queue_cap = static_cast<std::uint32_t>(v);
      stream_flag = "--queue-cap";
    } else if (consume(arg, "--service-cv=", value)) {
      double v = 0.0;
      if (!parse_finite(value, v) || !(v >= 0.0)) {
        return fail("--service-cv expects a non-negative coefficient of "
                    "variation, got '" + value + "'");
      }
      options.scenario.stream.service_cv = v;
      stream_flag = "--service-cv";
    } else if (consume(arg, "--metric=", value)) {
      bool known = false;
      (void)metric_value(EpochMetrics{}, value, &known);
      if (!known) return fail("unknown metric '" + value + "'");
      options.metric = value;
    } else if (consume(arg, "--trace-out=", value)) {
      if (value.empty()) return fail("--trace-out expects a file path");
      options.trace_out = value;
    } else if (consume(arg, "--trace-format=", value)) {
      if (value == "jsonl") options.trace_format = TraceFormat::kJsonl;
      else if (value == "chrome") options.trace_format = TraceFormat::kChrome;
      else return fail("--trace-format expects jsonl or chrome");
    } else if (consume(arg, "--trace-filter=", value)) {
      for (const std::string& name : parse_event_filter(value)) {
        if (!is_event_name(name)) {
          return fail("--trace-filter: unknown event type '" + name + "'");
        }
      }
      options.trace_filter = value;
    } else if (consume(arg, "--metrics-out=", value)) {
      if (value.empty()) return fail("--metrics-out expects a file path");
      options.metrics_out = value;
    } else if (consume(arg, "--metrics-format=", value)) {
      if (value == "prom") options.metrics_format = MetricsFormat::kProm;
      else if (value == "json") options.metrics_format = MetricsFormat::kJson;
      else return fail("--metrics-format expects prom or json");
    } else if (consume(arg, "--fault-plan=", value)) {
      if (value.empty()) return fail("--fault-plan expects a file path");
      FaultPlan::ParseResult parsed = FaultPlan::parse_file(value);
      if (!parsed.ok) {
        return fail("--fault-plan: " + parsed.error);
      }
      options.fault_plan_path = value;
      options.scenario.fault_plan = std::move(parsed.plan);
    } else if (consume(arg, "--slo=", value)) {
      SloParseResult parsed = parse_slo(value);
      if (!parsed.ok) {
        return fail("--slo: " + parsed.error);
      }
      options.scenario.slo = parsed.spec;
    } else if (consume(arg, "--blackbox-out=", value)) {
      if (value.empty()) return fail("--blackbox-out expects a file path");
      options.blackbox_out = value;
    } else if (std::strcmp(arg, "--check-invariants") == 0) {
      options.check_invariants = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      options.profile = true;
    } else if (std::strcmp(arg, "--compare") == 0) {
      options.compare = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      options.quiet = true;
    } else {
      return fail(std::string("unknown argument '") + arg + "'");
    }
  }
  if (const std::string error = validate(options.scenario.sim);
      !error.empty()) {
    return fail("--" + error);
  }
  if (!options.trace_out.empty() && options.compare) {
    return fail("--trace-out traces a single policy run; drop --compare");
  }
  if (!options.metrics_out.empty() && options.compare) {
    return fail("--metrics-out dumps a single policy run; drop --compare");
  }
  if (options.profile && options.compare) {
    return fail("--profile times a single policy run; drop --compare");
  }
  if (!options.fault_plan_path.empty() && options.compare) {
    return fail("--fault-plan drives a single policy run; drop --compare");
  }
  if (options.check_invariants && options.compare) {
    return fail("--check-invariants checks a single policy run; drop "
                "--compare");
  }
  if (!options.blackbox_out.empty() && options.compare) {
    return fail("--blackbox-out records a single policy run; drop --compare");
  }
  if (stream_flag != nullptr &&
      options.scenario.workload != WorkloadKind::kStream) {
    return fail(std::string(stream_flag) +
                " only applies to --workload=stream");
  }
  if (jobs_seen && !options.compare) {
    // Single-policy runs shard the epoch phases themselves. Under
    // --compare the pool parallelises across policies instead and each
    // engine stays serial, so the two modes never nest thread pools.
    options.scenario.engine_jobs = options.jobs;
  }
  result.ok = true;
  return result;
}

}  // namespace rfh
