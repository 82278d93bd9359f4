// Figs. 3-9 — the paper's Section III comparison of Request, Owner,
// Random and RFH. Every panel plots one per-epoch metric of the same two
// four-policy runs, so each runs once and all 22 panels print from it:
//   random query: uniform demand, 250 epochs — Fig. N(a), (b);
//   flash crowd: 4-stage flash crowd, 400 epochs — the (b) panel of the
//   two-panel figures, (c) and (d) of the four-panel ones.
//
// Paper shapes (EXPERIMENTS.md checks each against the tail means):
//   Fig. 3 replica utilization: RFH highest, then request-oriented, then
//     owner-oriented, random lowest; under flash crowd request-oriented
//     collapses at the first stage switch (epoch 100) and recovers only
//     partially, while RFH dips once and re-adapts quickly.
//   Fig. 4 replica number (total; average per partition): random needs by
//     far the most copies (~8 per partition), owner-oriented next, RFH
//     close to request-oriented at ~4 / ~3; under flash crowd RFH stays
//     near its random-query level while the others inflate.
//   Fig. 5 replication cost (Eq. 1, cumulative; average per replication):
//     random pays the most; RFH the lowest total under both settings;
//     under flash crowd RFH's average rises above owner-oriented's (hubs
//     sit away from the owner) while its total stays lowest.
//   Fig. 6 migration times (cumulative; average per replica):
//     request-oriented migrates by far the most; random never migrates;
//     owner-oriented only on membership change; RFH stays low.
//   Fig. 7 migration cost (cumulative; average per migration):
//     request-oriented pays the most (long-haul moves towards requesters);
//     random and owner-oriented pay zero; RFH pays little; all rise under
//     flash crowd.
//   Fig. 8 load imbalance (Eqs. 24-26, stddev of per-server workload):
//     RFH lowest (Erlang-B server choice), and it improves under flash
//     crowd while the others get worse.
//   Fig. 9 lookup path length (mean hops per query): every curve drops
//     sharply as the replica build-out raises hit chances; owner-oriented
//     stays longest; request-oriented is shortest inside its home stage;
//     RFH near-best with a brief spike when the hubs move.
//
// BENCH_paper.json holds the wall time of each comparison and every
// tail mean the "# tail-mean" lines print, named
// <comparison>_<policy>_<metric>_tail50, e.g.
// flash_crowd_rfh_imbalance_tail50.
//
//   $ ./bench_paper_figures [--jobs=N|auto]
#include <cctype>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>

#include "bench_args.h"
#include "bench_report.h"
#include "exec/sweep.h"
#include "harness/report.h"

namespace {

using rfh::EpochMetrics;

constexpr std::size_t kTailWindow = 50;

enum Comparison : std::size_t { kRandomQuery = 0, kFlashCrowd = 1 };
constexpr const char* kComparisonNames[] = {"random_query", "flash_crowd"};

/// One figure panel: a series of one comparison. Exactly one of `field`
/// and `count` is set.
struct Panel {
  const char* title;
  Comparison comparison;
  const char* metric;
  double EpochMetrics::* field;
  std::uint32_t EpochMetrics::* count;
};

constexpr Panel kPanels[] = {
    {"Fig 3(a): replica utilization, random query", kRandomQuery,
     "utilization", &EpochMetrics::utilization, nullptr},
    {"Fig 3(b): replica utilization, flash crowd", kFlashCrowd,
     "utilization", &EpochMetrics::utilization, nullptr},
    {"Fig 4(a): total replica number, random query", kRandomQuery,
     "total_replicas", nullptr, &EpochMetrics::total_replicas},
    {"Fig 4(b): avg replicas per partition, random query", kRandomQuery,
     "avg_replicas", &EpochMetrics::avg_replicas_per_partition, nullptr},
    {"Fig 4(c): total replica number, flash crowd", kFlashCrowd,
     "total_replicas", nullptr, &EpochMetrics::total_replicas},
    {"Fig 4(d): avg replicas per partition, flash crowd", kFlashCrowd,
     "avg_replicas", &EpochMetrics::avg_replicas_per_partition, nullptr},
    {"Fig 5(a): total replication cost, random query", kRandomQuery,
     "replication_cost_total", &EpochMetrics::replication_cost_total,
     nullptr},
    {"Fig 5(b): avg replication cost, random query", kRandomQuery,
     "replication_cost_avg", &EpochMetrics::replication_cost_avg, nullptr},
    {"Fig 5(c): total replication cost, flash crowd", kFlashCrowd,
     "replication_cost_total", &EpochMetrics::replication_cost_total,
     nullptr},
    {"Fig 5(d): avg replication cost, flash crowd", kFlashCrowd,
     "replication_cost_avg", &EpochMetrics::replication_cost_avg, nullptr},
    {"Fig 6(a): total migration times, random query", kRandomQuery,
     "migrations_total", nullptr, &EpochMetrics::migrations_total},
    {"Fig 6(b): avg migration times per replica, random query", kRandomQuery,
     "migrations_avg", &EpochMetrics::migrations_avg, nullptr},
    {"Fig 6(c): total migration times, flash crowd", kFlashCrowd,
     "migrations_total", nullptr, &EpochMetrics::migrations_total},
    {"Fig 6(d): avg migration times per replica, flash crowd", kFlashCrowd,
     "migrations_avg", &EpochMetrics::migrations_avg, nullptr},
    {"Fig 7(a): total migration cost, random query", kRandomQuery,
     "migration_cost_total", &EpochMetrics::migration_cost_total, nullptr},
    {"Fig 7(b): avg migration cost, random query", kRandomQuery,
     "migration_cost_avg", &EpochMetrics::migration_cost_avg, nullptr},
    {"Fig 7(c): total migration cost, flash crowd", kFlashCrowd,
     "migration_cost_total", &EpochMetrics::migration_cost_total, nullptr},
    {"Fig 7(d): avg migration cost, flash crowd", kFlashCrowd,
     "migration_cost_avg", &EpochMetrics::migration_cost_avg, nullptr},
    {"Fig 8(a): load imbalance, random query", kRandomQuery, "imbalance",
     &EpochMetrics::load_imbalance, nullptr},
    {"Fig 8(b): load imbalance, flash crowd", kFlashCrowd, "imbalance",
     &EpochMetrics::load_imbalance, nullptr},
    {"Fig 9(a): lookup path length, random query", kRandomQuery,
     "path_length", &EpochMetrics::path_length, nullptr},
    {"Fig 9(b): lookup path length, flash crowd", kFlashCrowd,
     "path_length", &EpochMetrics::path_length, nullptr},
};

std::string lowercase(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = rfh::bench_jobs(argc, argv);
  rfh::BenchReport report("paper");
  const rfh::Scenario scenarios[] = {rfh::Scenario::paper_random_query(),
                                     rfh::Scenario::paper_flash_crowd()};
  rfh::ComparativeResult results[std::size(scenarios)];
  for (std::size_t i = 0; i < std::size(scenarios); ++i) {
    const auto stage = report.stage(kComparisonNames[i]);
    results[i] = rfh::run_comparison(scenarios[i], jobs);
  }

  for (const Panel& panel : kPanels) {
    const rfh::ComparativeResult& r = results[panel.comparison];
    if (panel.field != nullptr) {
      rfh::print_figure(std::cout, panel.title, r, panel.field, kTailWindow);
    } else {
      rfh::print_figure_u32(std::cout, panel.title, r, panel.count,
                            kTailWindow);
    }
    for (const rfh::PolicyRun& run : r.runs) {
      report.add_metric(
          std::string(kComparisonNames[panel.comparison]) + "_" +
              lowercase(rfh::policy_name(run.kind)) + "_" + panel.metric +
              "_tail50",
          panel.field != nullptr
              ? rfh::tail_mean(run, panel.field, kTailWindow)
              : rfh::tail_mean(run, panel.count, kTailWindow));
    }
  }
  report.write_file();
  return 0;
}
