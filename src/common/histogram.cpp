#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.h"

namespace rfh {

namespace {
// log(kMaxValue / kMinValue)
const double kLogSpan = std::log(Histogram::kMaxValue / Histogram::kMinValue);
}  // namespace

std::size_t Histogram::bucket_of(double value) noexcept {
  const double clamped = std::clamp(value, kMinValue, kMaxValue);
  const double t = std::log(clamped / kMinValue) / kLogSpan;
  const auto i = static_cast<std::size_t>(t * static_cast<double>(kBuckets));
  return std::min(i, kBuckets - 1);
}

double Histogram::bucket_lo(std::size_t i) noexcept {
  return kMinValue * std::exp(kLogSpan * static_cast<double>(i) /
                              static_cast<double>(kBuckets));
}

double Histogram::bucket_hi(std::size_t i) noexcept {
  return bucket_lo(i + 1);
}

void Histogram::add(double weight, double value) noexcept {
  RFH_ASSERT(weight >= 0.0);
  if (weight == 0.0) return;
  weights_[bucket_of(value)] += weight;
  total_weight_ += weight;
  weighted_sum_ += weight * value;
  max_value_ = std::max(max_value_, value);
}

double Histogram::percentile(double q) const noexcept {
  RFH_ASSERT(q > 0.0 && q <= 1.0);
  if (total_weight_ == 0.0) return 0.0;
  const double target = q * total_weight_;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (weights_[i] == 0.0) continue;
    if (cumulative + weights_[i] >= target) {
      // Linear interpolation inside the bucket.
      const double within = (target - cumulative) / weights_[i];
      return bucket_lo(i) + within * (bucket_hi(i) - bucket_lo(i));
    }
    cumulative += weights_[i];
  }
  return max_value_;
}

double Histogram::fraction_at_or_below(double value) const noexcept {
  if (total_weight_ == 0.0) return 1.0;
  const std::size_t limit = bucket_of(value);
  double below = 0.0;
  for (std::size_t i = 0; i <= limit; ++i) below += weights_[i];
  return below / total_weight_;
}

void Histogram::quantiles(std::span<const double> qs,
                          std::span<double> out) const {
  RFH_ASSERT(out.size() == qs.size());
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    RFH_ASSERT(qs[i] > 0.0 && qs[i] <= 1.0);
    RFH_ASSERT_MSG(i == 0 || qs[i] >= qs[i - 1],
                   "quantile grid must be ascending");
  }
  if (total_weight_ == 0.0) return;
  std::size_t qi = 0;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBuckets && qi < qs.size(); ++i) {
    if (weights_[i] == 0.0) continue;
    while (qi < qs.size() &&
           cumulative + weights_[i] >= qs[qi] * total_weight_) {
      const double within =
          (qs[qi] * total_weight_ - cumulative) / weights_[i];
      out[qi] = bucket_lo(i) + within * (bucket_hi(i) - bucket_lo(i));
      ++qi;
    }
    cumulative += weights_[i];
  }
  // Floating-point shortfall at q=1.0: the running sum can end a hair
  // below the target, exactly as percentile() falls through to max.
  for (; qi < qs.size(); ++qi) out[qi] = max_value_;
}

void Histogram::append_json(std::string& out,
                            std::span<const double> qs) const {
  const auto fmt = [&out](double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += buf;
  };
  const std::vector<double> values = quantiles(qs);
  out += "{\"count\":";
  fmt(total_weight_);
  out += ",\"mean\":";
  fmt(mean());
  out += ",\"max\":";
  fmt(max_value_);
  out += ",\"quantiles\":{";
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (i > 0) out += ',';
    char key[16];
    std::snprintf(key, sizeof key, "%g", qs[i]);
    out += '"';
    out += key;
    out += "\":";
    fmt(values[i]);
  }
  out += "}}";
}

std::string Histogram::to_json(std::span<const double> qs) const {
  std::string out;
  append_json(out, qs);
  return out;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) weights_[i] += other.weights_[i];
  total_weight_ += other.total_weight_;
  weighted_sum_ += other.weighted_sum_;
  max_value_ = std::max(max_value_, other.max_value_);
}

}  // namespace rfh
