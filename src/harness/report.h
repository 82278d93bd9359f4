// Figure emission: print, for one paper artefact, the same series the
// paper plots (CSV, one column per algorithm) followed by a shape summary
// (tail means and ranking) that EXPERIMENTS.md records against the
// paper's claims.
#pragma once

#include <ostream>
#include <string>

#include "harness/runner.h"
#include "metrics/csv.h"

namespace rfh {

/// Print "# <title>", the per-epoch CSV of `field` for every run, then a
/// "# tail-mean" ranking line (mean over the last `tail_window` epochs).
void print_figure(std::ostream& out, const std::string& title,
                  const ComparativeResult& result,
                  double EpochMetrics::* field,
                  std::size_t tail_window = 50);

/// Same for a counter field.
void print_figure_u32(std::ostream& out, const std::string& title,
                      const ComparativeResult& result,
                      std::uint32_t EpochMetrics::* field,
                      std::size_t tail_window = 50);

/// Tail mean of a field for one run — the value the "# tail-mean" line
/// prints for that run.
double tail_mean(const PolicyRun& run, double EpochMetrics::* field,
                 std::size_t window);

/// Same for a counter field.
double tail_mean(const PolicyRun& run, std::uint32_t EpochMetrics::* field,
                 std::size_t window);

}  // namespace rfh
