// Strict number parsing for every text input: flags, fault plans, SLO
// specs, check cases, redundancy specs and traces. A value parses only
// when the whole string is one number, and a double must be finite, so
// "nan" and "inf" are malformed input. On failure `out` is untouched.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <string_view>

namespace rfh {

template <std::unsigned_integral T>
[[nodiscard]] bool parse_uint(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

[[nodiscard]] inline bool parse_finite(std::string_view text, double& out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return false;
  out = value;
  return true;
}

}  // namespace rfh
