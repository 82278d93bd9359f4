#include "sim/config.h"

#include <cstdio>

#include "common/parse.h"

namespace rfh {

std::string validate(const SimConfig& config) {
  struct Rule {
    const char* name;
    double value;
    bool ok;
    const char* expects;
  };
  const double partitions = config.partitions;
  const Rule rules[] = {
      {"partitions", partitions, partitions > 0.0, "a positive integer"},
      {"alpha", config.alpha, config.alpha > 0.0 && config.alpha < 1.0,
       "a smoothing factor in (0, 1)"},
      {"beta", config.beta, config.beta > 0.0,
       "a positive overload threshold"},
      {"gamma", config.gamma, config.gamma > 0.0, "a positive hub threshold"},
      {"delta", config.delta, config.delta >= 0.0,
       "a non-negative suicide threshold"},
      {"mu", config.mu, config.mu >= 0.0,
       "a non-negative migration-benefit threshold"},
      {"phi", config.storage_limit,
       config.storage_limit > 0.0 && config.storage_limit <= 1.0,
       "a storage-limit fraction in (0, 1]"},
      {"failure_rate", config.failure_rate,
       config.failure_rate > 0.0 && config.failure_rate < 1.0,
       "a per-copy failure probability in (0, 1)"},
      {"min_availability", config.min_availability,
       config.min_availability >= 0.0 && config.min_availability < 1.0,
       "a target availability in [0, 1)"},
  };
  char value[32];
  for (const Rule& rule : rules) {
    if (rule.ok) continue;
    std::snprintf(value, sizeof value, "%.12g", rule.value);
    return std::string(rule.name) + " expects " + rule.expects + ", got " +
           value;
  }
  // Eq. 14's copy floor must fit the copy cap: availability grows with
  // the copy count, so the floor fits iff the cap itself reaches the
  // target (checked here, not by searching for the floor, which asserts
  // when it cannot reach the target).
  const std::uint32_t cap = config.max_replicas_per_partition;
  const bool erasure = config.redundancy == RedundancyMode::kErasure;
  const std::uint32_t least = erasure ? config.ec_k + config.ec_m : 2;
  const double reached =
      erasure ? ec_availability(cap, config.ec_k, config.failure_rate)
              : availability(cap, config.failure_rate);
  if (cap < least || reached < config.min_availability) {
    std::snprintf(value, sizeof value, "%.12g", config.failure_rate);
    const std::string failure_rate = value;
    std::snprintf(value, sizeof value, "%.12g", config.min_availability);
    return "min_availability expects a target that "
           "max_replicas_per_partition = " +
           std::to_string(cap) + " copies reach at failure_rate " +
           failure_rate + " (Eq. 14), got " + value;
  }
  return "";
}

std::string redundancy_spec(const SimConfig& config) {
  if (config.redundancy == RedundancyMode::kReplica) return "replica";
  return "ec(" + std::to_string(config.ec_k) + "," +
         std::to_string(config.ec_m) + ")";
}

bool parse_redundancy(std::string_view text, SimConfig& config,
                      std::string& error) {
  if (text == "replica") {
    config.redundancy = RedundancyMode::kReplica;
    return true;
  }
  const auto reject = [&] {
    error = "unsupported redundancy mode '" + std::string(text) +
            "' (want replica or ec(k,m) with k >= 2, m >= 1, k + m <= 16)";
    return false;
  };
  if (!text.starts_with("ec(") || !text.ends_with(")")) return reject();
  const std::string_view args = text.substr(3, text.size() - 4);
  const std::size_t comma = args.find(',');
  if (comma == std::string_view::npos) return reject();
  std::uint32_t k = 0;
  std::uint32_t m = 0;
  if (!parse_uint(args.substr(0, comma), k) ||
      !parse_uint(args.substr(comma + 1), m)) {
    return reject();
  }
  if (k < 2 || m < 1 || k + m > 16) return reject();
  config.redundancy = RedundancyMode::kErasure;
  config.ec_k = k;
  config.ec_m = m;
  return true;
}

}  // namespace rfh
