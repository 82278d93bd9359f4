// Weighted log-bucketed histogram for latency distributions.
//
// The paper's motivation cites Amazon's SLA — "a response within 300 ms
// for 99.9 % of requests" — so the simulator tracks per-query latency and
// needs cheap percentile estimates over fractional query weights.
// Buckets are geometric between kMinValue and kMaxValue; percentile
// queries interpolate linearly within the winning bucket.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace rfh {

class Histogram {
 public:
  static constexpr double kMinValue = 0.1;      // 0.1 ms
  static constexpr double kMaxValue = 100000.0; // 100 s
  static constexpr std::size_t kBuckets = 256;
  /// Default quantile grid for telemetry snapshots (registry exports,
  /// bench reports).
  static constexpr std::array<double, 4> kSnapshotQuantiles{0.5, 0.9, 0.99,
                                                            0.999};

  Histogram() noexcept { reset(); }

  void reset() noexcept {
    weights_.fill(0.0);
    total_weight_ = 0.0;
    weighted_sum_ = 0.0;
    max_value_ = 0.0;
  }

  /// Record `weight` observations of `value` (values are clamped into
  /// [kMinValue, kMaxValue]).
  void add(double weight, double value) noexcept;

  /// Smallest value v such that at least q of the total weight is <= v.
  /// q in (0, 1]; returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double q) const noexcept;

  /// Fraction of the weight at or below `value` (1.0 when empty: an SLA
  /// over zero requests is trivially met).
  [[nodiscard]] double fraction_at_or_below(double value) const noexcept;

  /// percentile() over an ascending grid of quantiles in one bucket pass:
  /// out[i] equals percentile(qs[i]) exactly (out has qs.size()
  /// elements). All zeros when empty.
  void quantiles(std::span<const double> qs, std::span<double> out) const;
  [[nodiscard]] std::vector<double> quantiles(
      std::span<const double> qs) const {
    std::vector<double> out(qs.size());
    quantiles(qs, out);
    return out;
  }

  /// Append a one-line JSON snapshot — {"count":...,"mean":...,
  /// "max":...,"quantiles":{"0.5":...}} — for the metric registry and
  /// bench reports. `count` is the total observation weight.
  void append_json(std::string& out, std::span<const double> qs) const;
  [[nodiscard]] std::string to_json(
      std::span<const double> qs = kSnapshotQuantiles) const;

  [[nodiscard]] double mean() const noexcept {
    return total_weight_ > 0.0 ? weighted_sum_ / total_weight_ : 0.0;
  }
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }
  [[nodiscard]] double max_value() const noexcept { return max_value_; }
  [[nodiscard]] bool empty() const noexcept { return total_weight_ == 0.0; }

  /// Merge another histogram into this one.
  void merge(const Histogram& other) noexcept;

 private:
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept;
  /// Lower edge of bucket i (geometric spacing).
  [[nodiscard]] static double bucket_lo(std::size_t i) noexcept;
  [[nodiscard]] static double bucket_hi(std::size_t i) noexcept;

  std::array<double, kBuckets> weights_{};
  double total_weight_ = 0.0;
  double weighted_sum_ = 0.0;
  double max_value_ = 0.0;
};

}  // namespace rfh
