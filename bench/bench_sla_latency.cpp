// Extension experiment — tail-latency curves under streaming load.
//
// The paper's introduction motivates RFH with Amazon's SLA ("a response
// within 300 ms for 99.9 % of its requests") but never plots latency.
// This bench closes the loop with the streaming layer (src/stream/):
// open-loop timestamped arrivals queue at the serving servers (M/D/c
// with the (1 + cv^2) M/G/c correction, bounded waiting room), and we
// plot end-to-end p50/p99/p99.9 — routing plus queueing plus blocking
// penalty — per requester datacenter, as the offered load scales from
// half the Table I rate to 4x it, for RFH against all three baselines.
//
// Output: one CSV block per load factor (rows = requester DC + merged,
// columns = policy x percentile), plus BENCH_sla_latency.json with the
// merged tail metrics per (policy, load) for scripts/bench_diff.py.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.h"
#include "bench_report.h"
#include "common/histogram.h"
#include "harness/runner.h"
#include "stream/stream_sim.h"
#include "telemetry/registry.h"

namespace {

constexpr double kLoadFactors[] = {0.5, 1.0, 2.0, 4.0};
constexpr rfh::PolicyKind kPolicies[] = {
    rfh::PolicyKind::kRequest, rfh::PolicyKind::kOwner,
    rfh::PolicyKind::kRandom, rfh::PolicyKind::kRfh};
constexpr double kBaseRate = 300.0;  // Table I lambda
constexpr rfh::Epoch kEpochs = 60;

struct PolicyTails {
  rfh::PolicyKind policy;
  // Cumulative per-requester-DC latency distributions plus the merge.
  std::vector<rfh::Histogram> by_dc;
  rfh::Histogram merged;
  // The nine per-epoch stream fields, accumulated over the run: counter
  // sums, the run-max queue depth, the served-weighted wait mean, and
  // arrival-weighted means of the per-epoch latency percentiles.
  double arrivals = 0.0;
  double served = 0.0;
  double blocked = 0.0;
  double dropped = 0.0;
  std::uint32_t max_queue_depth = 0;
  double wait_mean_ms = 0.0;
  double epoch_p50_ms = 0.0;
  double epoch_p99_ms = 0.0;
  double epoch_p999_ms = 0.0;
};

/// Drive one policy through the stream scenario and keep the cumulative
/// latency histograms (run_policy hides the StreamSimulator, and the
/// curves here need the per-DC distributions it records in the registry's
/// rfh_stream_latency_ms{dc=...} histograms).
PolicyTails run_stream(const rfh::Scenario& scenario, rfh::PolicyKind kind,
                       const std::vector<std::string>& dc_names) {
  PolicyTails out;
  out.policy = kind;
  auto sim = rfh::make_simulation(scenario, kind, rfh::RfhPolicy::Options{});
  rfh::MetricRegistry registry;
  rfh::StreamSimulator stream(sim->world(), &registry, scenario.stream,
                              scenario.sim.seed);
  sim->set_flow_log(&stream.flow_log());
  double wait_weight = 0.0;
  double tail_weight = 0.0;
  for (rfh::Epoch e = 0; e < scenario.epochs; ++e) {
    const rfh::EpochReport report = sim->step();
    const rfh::StreamEpochStats stats = stream.process_epoch(*sim, report);
    out.arrivals += stats.arrivals;
    out.served += stats.served;
    out.blocked += stats.blocked;
    out.dropped += stats.dropped;
    out.max_queue_depth = std::max(out.max_queue_depth, stats.max_queue_depth);
    out.wait_mean_ms += stats.mean_wait_ms * stats.served;
    wait_weight += stats.served;
    out.epoch_p50_ms += stats.p50_ms * stats.arrivals;
    out.epoch_p99_ms += stats.p99_ms * stats.arrivals;
    out.epoch_p999_ms += stats.p999_ms * stats.arrivals;
    tail_weight += stats.arrivals;
  }
  if (wait_weight > 0.0) out.wait_mean_ms /= wait_weight;
  if (tail_weight > 0.0) {
    out.epoch_p50_ms /= tail_weight;
    out.epoch_p99_ms /= tail_weight;
    out.epoch_p999_ms /= tail_weight;
  }
  out.by_dc.reserve(dc_names.size());
  for (const std::string& name : dc_names) {
    const rfh::HistogramMetric* latency =
        registry.find_histogram("rfh_stream_latency_ms", {{"dc", name}});
    out.by_dc.push_back(latency->histogram());
    out.merged.merge(latency->histogram());
  }
  return out;
}

void print_block(double load, const std::vector<std::string>& dc_names,
                 const std::vector<PolicyTails>& tails) {
  std::printf("# SLA: end-to-end latency percentiles (ms), load=%.1fx\n",
              load);
  std::printf("dc");
  for (const PolicyTails& t : tails) {
    const std::string name(rfh::policy_name(t.policy));
    std::printf(",%s_p50,%s_p99,%s_p999", name.c_str(), name.c_str(),
                name.c_str());
  }
  std::printf("\n");
  for (std::size_t d = 0; d <= dc_names.size(); ++d) {
    const bool merged = d == dc_names.size();
    std::printf("%s", merged ? "ALL" : dc_names[d].c_str());
    for (const PolicyTails& t : tails) {
      const rfh::Histogram& h = merged ? t.merged : t.by_dc[d];
      std::printf(",%.3f,%.3f,%.3f", h.percentile(0.5), h.percentile(0.99),
                  h.percentile(0.999));
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  (void)rfh::bench_jobs(argc, argv);  // runs are sequential; flag accepted
  rfh::BenchReport report("sla_latency");

  rfh::Scenario base = rfh::Scenario::paper_random_query();
  base.workload = rfh::WorkloadKind::kStream;
  base.epochs = kEpochs;

  // Requester-DC names straight from the world the runs will build.
  std::vector<std::string> dc_names;
  {
    const auto sim =
        rfh::make_simulation(base, rfh::PolicyKind::kRfh,
                             rfh::RfhPolicy::Options{});
    for (std::size_t d = 0; d < sim->topology().datacenter_count(); ++d) {
      dc_names.push_back(
          sim->topology()
              .datacenter(rfh::DatacenterId{static_cast<std::uint32_t>(d)})
              .name);
    }
  }

  for (const double load : kLoadFactors) {
    char stage_name[32];
    std::snprintf(stage_name, sizeof stage_name, "load_%.1fx", load);
    const auto stage = report.stage(stage_name);
    rfh::Scenario scenario = base;
    scenario.stream.arrival_rate = kBaseRate * load;
    std::vector<PolicyTails> tails;
    tails.reserve(std::size(kPolicies));
    for (const rfh::PolicyKind kind : kPolicies) {
      tails.push_back(run_stream(scenario, kind, dc_names));
    }
    print_block(load, dc_names, tails);
    for (const PolicyTails& t : tails) {
      const std::string prefix =
          std::string(rfh::policy_name(t.policy)) + "_" + stage_name;
      report.add_metric(prefix + "_p50_ms", t.merged.percentile(0.5));
      report.add_metric(prefix + "_p99_ms", t.merged.percentile(0.99));
      report.add_metric(prefix + "_p999_ms", t.merged.percentile(0.999));
      report.add_metric(prefix + "_drop_fraction",
                        t.arrivals > 0.0 ? t.dropped / t.arrivals : 0.0);
      // The nine stream fields, so bench_diff can compare stream runs.
      report.add_metric(prefix + "_stream_arrivals", t.arrivals);
      report.add_metric(prefix + "_stream_served", t.served);
      report.add_metric(prefix + "_stream_blocked", t.blocked);
      report.add_metric(prefix + "_stream_dropped", t.dropped);
      report.add_metric(prefix + "_stream_max_queue_depth",
                        static_cast<double>(t.max_queue_depth));
      report.add_metric(prefix + "_stream_wait_mean_ms", t.wait_mean_ms);
      report.add_metric(prefix + "_stream_p50_ms", t.epoch_p50_ms);
      report.add_metric(prefix + "_stream_p99_ms", t.epoch_p99_ms);
      report.add_metric(prefix + "_stream_p999_ms", t.epoch_p999_ms);
      // Per-requester-DC tail summaries (bench_diff collapses these into
      // one worst-DC row per group).
      for (std::size_t d = 0; d < t.by_dc.size(); ++d) {
        report.add_metric(prefix + "_dc_" + dc_names[d] + "_p99_ms",
                          t.by_dc[d].percentile(0.99));
      }
    }
  }

  report.write_file();
  return 0;
}
