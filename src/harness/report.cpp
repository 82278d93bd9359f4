#include "harness/report.h"

#include <algorithm>
#include <iomanip>

namespace rfh {

namespace {

double tail_mean_of(const std::vector<double>& values,
                    std::size_t tail_window) {
  const std::size_t n = std::min(tail_window, values.size());
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t j = values.size() - n; j < values.size(); ++j) {
    sum += values[j];
  }
  return sum / static_cast<double>(n);
}

void print_tail_ranking(std::ostream& out,
                        const std::vector<NamedSeries>& series,
                        std::size_t tail_window) {
  out << "# tail-mean(last " << tail_window << " epochs):";
  const auto flags = out.flags();
  out << std::fixed << std::setprecision(3);
  for (const NamedSeries& s : series) {
    out << ' ' << s.name << '=' << tail_mean_of(s.values, tail_window);
  }
  out.flags(flags);
  out << '\n';
}

template <typename Extractor>
void print_figure_impl(std::ostream& out, const std::string& title,
                       const ComparativeResult& result, Extractor extractor,
                       std::size_t tail_window) {
  out << "# " << title << '\n';
  std::vector<NamedSeries> series;
  for (const PolicyRun& run : result.runs) {
    series.push_back(NamedSeries{std::string(policy_name(run.kind)),
                                 extractor(run.series)});
  }
  write_csv(out, series);
  print_tail_ranking(out, series, tail_window);
  out << '\n';
}

}  // namespace

void print_figure(std::ostream& out, const std::string& title,
                  const ComparativeResult& result,
                  double EpochMetrics::* field, std::size_t tail_window) {
  print_figure_impl(
      out, title, result,
      [field](const std::vector<EpochMetrics>& s) { return extract(s, field); },
      tail_window);
}

void print_figure_u32(std::ostream& out, const std::string& title,
                      const ComparativeResult& result,
                      std::uint32_t EpochMetrics::* field,
                      std::size_t tail_window) {
  print_figure_impl(out, title, result,
                    [field](const std::vector<EpochMetrics>& s) {
                      return extract_u32(s, field);
                    },
                    tail_window);
}

double tail_mean(const PolicyRun& run, double EpochMetrics::* field,
                 std::size_t window) {
  return tail_mean_of(extract(run.series, field), window);
}

double tail_mean(const PolicyRun& run, std::uint32_t EpochMetrics::* field,
                 std::size_t window) {
  return tail_mean_of(extract_u32(run.series, field), window);
}

}  // namespace rfh
