// Command-line experiment driver (flag grammar: see src/harness/cli.h).
//
// Examples:
//   ./rfh_cli --workload=flash --metric=utilization --compare
//   ./rfh_cli --compare --jobs=4 --quiet
//   ./rfh_cli --policy=rfh --kill=30@290 --epochs=500 --metric=replicas
//   ./rfh_cli --write-fraction=0.2 --metric=stale --compare --quiet
//   ./rfh_cli --kill=30@100 --trace-out=run.jsonl --quiet
//   ./rfh_cli --trace-out=run.json --trace-format=chrome
//   ./rfh_cli --trace-out=r.jsonl --trace-filter=ReplicaAdded,ActionDropped
//   ./rfh_cli --metrics-out=metrics.prom --quiet
//   ./rfh_cli --metrics-out=metrics.json --metrics-format=json
//   ./rfh_cli --profile --quiet
//   ./rfh_cli --fault-plan=chaos.plan --check-invariants --quiet
//   ./rfh_cli --workload=stream --metrics-out=- --quiet
//   ./rfh_cli --workload=stream --arrival-rate=600 --queue-cap=16
//             --service-cv=2 --metric=qp99 --check-invariants
//   ./rfh_cli --slo=avail=0.99,migrations=40 --kill=30@100 --quiet
//   ./rfh_cli --fault-plan=chaos.plan --blackbox-out=flight.jsonl --quiet
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "exec/sweep.h"
#include "fault/invariants.h"
#include "harness/cli.h"
#include "harness/report.h"
#include "obs/sinks.h"
#include "obs/timeline.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"

namespace {

void emit(const rfh::CliOptions& options,
          const std::vector<rfh::PolicyRun>& runs) {
  bool ok = true;
  if (!options.quiet) {
    std::vector<rfh::NamedSeries> series;
    for (const rfh::PolicyRun& run : runs) {
      std::vector<double> values;
      values.reserve(run.series.size());
      for (const rfh::EpochMetrics& m : run.series) {
        values.push_back(rfh::metric_value(m, options.metric, &ok));
      }
      series.push_back(rfh::NamedSeries{
          std::string(rfh::policy_name(run.kind)), std::move(values)});
    }
    rfh::write_csv(std::cout, series);
  }
  std::printf("# %s tail-mean(50):", options.metric.c_str());
  for (const rfh::PolicyRun& run : runs) {
    const std::size_t n = std::min<std::size_t>(50, run.series.size());
    double sum = 0.0;
    for (std::size_t i = run.series.size() - n; i < run.series.size(); ++i) {
      sum += rfh::metric_value(run.series[i], options.metric, &ok);
    }
    std::printf(" %s=%.4f", std::string(rfh::policy_name(run.kind)).c_str(),
                sum / static_cast<double>(n));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const rfh::CliParseResult parsed = rfh::parse_cli(
      std::span<const char* const>(argv + 1, static_cast<std::size_t>(argc - 1)));
  if (!parsed.ok) {
    std::fprintf(stderr, "rfh_cli: %s\n", parsed.error.c_str());
    std::fprintf(stderr, "metrics:");
    for (const std::string& name : rfh::metric_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n(see src/harness/cli.h for the flag grammar)\n");
    return 2;
  }
  const rfh::CliOptions& options = parsed.options;

  // Optional structured trace (parse_cli guarantees single-policy mode).
  std::ofstream trace_file;
  std::unique_ptr<rfh::EventSink> trace_sink;
  std::unique_ptr<rfh::FilterSink> filter;
  rfh::EventSink* sink = nullptr;
  if (!options.trace_out.empty()) {
    trace_file.open(options.trace_out);
    if (!trace_file) {
      std::fprintf(stderr, "rfh_cli: cannot open '%s' for writing\n",
                   options.trace_out.c_str());
      return 2;
    }
    if (options.trace_format == rfh::TraceFormat::kChrome) {
      trace_sink = std::make_unique<rfh::ChromeTraceSink>(trace_file);
    } else {
      trace_sink = std::make_unique<rfh::JsonlSink>(trace_file);
    }
    sink = trace_sink.get();
    if (!options.trace_filter.empty()) {
      filter = std::make_unique<rfh::FilterSink>(*trace_sink,
                                                 options.trace_filter);
      sink = filter.get();
    }
  }

  // Optional telemetry registry and phase profiler (single-policy mode,
  // guaranteed by parse_cli).
  std::unique_ptr<rfh::MetricRegistry> registry;
  if (!options.metrics_out.empty()) {
    registry = std::make_unique<rfh::MetricRegistry>();
  }
  std::unique_ptr<rfh::PhaseProfiler> profiler;
  if (options.profile) profiler = std::make_unique<rfh::PhaseProfiler>();
  std::unique_ptr<rfh::InvariantChecker> checker;
  if (options.check_invariants) {
    checker = std::make_unique<rfh::InvariantChecker>(
        rfh::InvariantChecker::Mode::kRecord);
  }
  // Causal flight recorder (single-policy mode, guaranteed by parse_cli).
  std::unique_ptr<rfh::TimelineStore> recorder;
  if (!options.blackbox_out.empty()) {
    recorder = std::make_unique<rfh::TimelineStore>(
        options.scenario.sim.partitions);
  }

  std::vector<rfh::PolicyRun> runs;
  if (options.compare) {
    runs = rfh::run_comparison(options.scenario, options.jobs).runs;
  } else {
    runs.push_back(rfh::run_policy(options.scenario, options.policy,
                                   rfh::FaultPlan{}, rfh::RfhPolicy::Options{},
                                   sink, registry.get(), profiler.get(),
                                   checker.get(), recorder.get()));
  }
  emit(options, runs);
  if (!options.scenario.fault_plan.empty()) {
    std::printf("# faults injected: %llu\n",
                static_cast<unsigned long long>(runs.front().faults_injected));
  }
  if (options.scenario.slo.enabled()) {
    const auto& breaches = runs.front().slo_breaches;
    std::printf("# slo breaches: %zu\n", breaches.size());
    for (const rfh::SloBreachRecord& b : breaches) {
      std::printf("#   epoch %u %s observed=%.4g target=%.4g "
                  "burn=%.2f/%.2f\n",
                  b.epoch, rfh::slo_objective_name(b.objective),
                  b.observed, b.target, b.burn_short, b.burn_long);
    }
  }
  if (sink != nullptr && !options.quiet) {
    std::fprintf(stderr, "# trace written to %s\n", options.trace_out.c_str());
  }
  if (recorder != nullptr) {
    std::ofstream blackbox_file(options.blackbox_out);
    if (!blackbox_file) {
      std::fprintf(stderr, "rfh_cli: cannot open '%s' for writing\n",
                   options.blackbox_out.c_str());
      return 2;
    }
    recorder->dump_jsonl(blackbox_file);
    if (!options.quiet) {
      std::fprintf(stderr, "# flight record written to %s (%llu events, "
                   "%llu sampled)\n",
                   options.blackbox_out.c_str(),
                   static_cast<unsigned long long>(recorder->total_recorded()),
                   static_cast<unsigned long long>(recorder->sampled()));
    }
  }

  if (registry != nullptr) {
    // --metrics-out=- dumps to stdout (after the CSV/summary lines).
    std::ofstream metrics_file;
    if (options.metrics_out != "-") {
      metrics_file.open(options.metrics_out);
      if (!metrics_file) {
        std::fprintf(stderr, "rfh_cli: cannot open '%s' for writing\n",
                     options.metrics_out.c_str());
        return 2;
      }
    }
    std::ostream& out =
        options.metrics_out == "-" ? std::cout : metrics_file;
    if (options.metrics_format == rfh::MetricsFormat::kJson) {
      registry->write_json(out);
    } else {
      registry->write_prometheus(out);
    }
    if (!options.quiet && options.metrics_out != "-") {
      std::fprintf(stderr, "# metrics written to %s\n",
                   options.metrics_out.c_str());
    }
  }
  if (profiler != nullptr) {
    // "# " prefix keeps the table ignorable by CSV consumers of stdout.
    profiler->write_table(std::cout, "# ");
  }
  if (checker != nullptr) {
    std::printf("# %s\n", checker->summary().c_str());
    if (!checker->violations().empty()) return 1;
  }
  return 0;
}
