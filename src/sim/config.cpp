#include "sim/config.h"

#include "common/parse.h"

namespace rfh {

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
