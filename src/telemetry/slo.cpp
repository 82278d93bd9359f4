#include "telemetry/slo.h"

#include <algorithm>

#include "common/parse.h"
#include "telemetry/registry.h"

namespace rfh {

const char* slo_objective_name(SloObjective objective) noexcept {
  switch (objective) {
    case SloObjective::kAvailability:
      return "availability";
    case SloObjective::kStreamP99:
      return "stream_p99";
    case SloObjective::kMigrationRate:
      return "migration_rate";
    case SloObjective::kDropRate:
      return "drop_rate";
  }
  return "?";
}

bool SloSpec::objective_enabled(SloObjective objective) const noexcept {
  return target(objective) >= 0.0;
}

double SloSpec::target(SloObjective objective) const noexcept {
  switch (objective) {
    case SloObjective::kAvailability:
      return availability_floor;
    case SloObjective::kStreamP99:
      return stream_p99_ms;
    case SloObjective::kMigrationRate:
      return migrations_per_epoch;
    case SloObjective::kDropRate:
      return drop_rate;
  }
  return -1.0;
}

double SloSample::signal(SloObjective objective) const noexcept {
  switch (objective) {
    case SloObjective::kAvailability:
      return availability;
    case SloObjective::kStreamP99:
      return stream_p99_ms;
    case SloObjective::kMigrationRate:
      return migrations;
    case SloObjective::kDropRate:
      return drop_rate;
  }
  return 0.0;
}

SloParseResult parse_slo(std::string_view text) {
  SloParseResult result;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view pair = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      result.error = "expected key=value, got '" + std::string(pair) + "'";
      return result;
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    double parsed = 0.0;
    if (!parse_finite(value, parsed)) {
      result.error =
          "bad number '" + std::string(value) + "' for key '" +
          std::string(key) + "'";
      return result;
    }
    if (key == "avail") {
      if (parsed <= 0.0 || parsed >= 1.0) {
        result.error = "avail must be in (0, 1)";
        return result;
      }
      result.spec.availability_floor = parsed;
    } else if (key == "p99") {
      result.spec.stream_p99_ms = parsed;
    } else if (key == "migrations") {
      result.spec.migrations_per_epoch = parsed;
    } else if (key == "drops") {
      if (parsed <= 0.0 || parsed >= 1.0) {
        result.error = "drops must be in (0, 1)";
        return result;
      }
      result.spec.drop_rate = parsed;
    } else if (key == "short") {
      result.spec.short_window = static_cast<std::uint32_t>(parsed);
    } else if (key == "long") {
      result.spec.long_window = static_cast<std::uint32_t>(parsed);
    } else if (key == "burn") {
      result.spec.burn_threshold = parsed;
    } else {
      result.error = "unknown key '" + std::string(key) +
                     "' (want avail|p99|migrations|drops|short|long|burn)";
      return result;
    }
  }
  if (result.spec.short_window == 0 ||
      result.spec.long_window < result.spec.short_window) {
    result.error = "windows must satisfy 0 < short <= long";
    return result;
  }
  if (result.spec.burn_threshold <= 0.0) {
    result.error = "burn threshold must be positive";
    return result;
  }
  if (!result.spec.enabled()) {
    result.error = "no objective enabled (set avail/p99/migrations/drops)";
    return result;
  }
  result.ok = true;
  return result;
}

SloWatchdog::SloWatchdog(const SloSpec& spec, EventBus* bus,
                         MetricRegistry* registry)
    : spec_(spec), bus_(bus), registry_(registry) {}

double SloWatchdog::burn_of(SloObjective objective,
                            double signal) const noexcept {
  constexpr double kTiny = 1e-12;
  if (objective == SloObjective::kAvailability) {
    const double budget = std::max(1.0 - spec_.availability_floor, kTiny);
    return std::max(0.0, 1.0 - signal) / budget;
  }
  const double ceiling = std::max(spec_.target(objective), kTiny);
  return std::max(0.0, signal) / ceiling;
}

double SloWatchdog::window_mean(const std::vector<double>& series,
                                std::uint32_t window) noexcept {
  if (series.empty() || window == 0) return 0.0;
  const std::size_t n = std::min<std::size_t>(series.size(), window);
  double sum = 0.0;
  for (std::size_t i = series.size() - n; i < series.size(); ++i) {
    sum += series[i];
  }
  return sum / static_cast<double>(n);
}

double SloWatchdog::burn_short(SloObjective objective) const noexcept {
  return window_mean(burns_[static_cast<std::size_t>(objective)],
                     spec_.short_window);
}

double SloWatchdog::burn_long(SloObjective objective) const noexcept {
  return window_mean(burns_[static_cast<std::size_t>(objective)],
                     spec_.long_window);
}

void SloWatchdog::observe(Epoch epoch, const SloSample& sample) {
  for (std::size_t k = 0; k < kSloObjectiveCount; ++k) {
    const auto objective = static_cast<SloObjective>(k);
    if (!spec_.objective_enabled(objective)) continue;
    const double signal = sample.signal(objective);
    signals_[k].push_back(signal);
    burns_[k].push_back(burn_of(objective, signal));

    const double burn_s = burn_short(objective);
    const double burn_l = burn_long(objective);
    if (!in_breach_[k]) {
      // Enter breach only when both windows agree: the short window
      // reacts to the incident, the long window proves it is sustained.
      if (burn_s >= spec_.burn_threshold && burn_l >= spec_.burn_threshold) {
        in_breach_[k] = true;
        SloBreachRecord record;
        record.epoch = epoch;
        record.objective = objective;
        record.observed = window_mean(signals_[k], spec_.long_window);
        record.target = spec_.target(objective);
        record.burn_short = burn_s;
        record.burn_long = burn_l;
        if (bus_ != nullptr) {
          record.cause_id = bus_->emit_caused(
              bus_->ambient_cause(),
              SloBreach{epoch, slo_objective_name(objective), record.observed,
                        record.target, burn_s, burn_l});
        }
        if (registry_ != nullptr) {
          registry_
              ->counter("rfh_slo_breaches_total",
                        {{"objective", slo_objective_name(objective)}},
                        "SLO breach episodes flagged by the burn-rate "
                        "watchdog")
              .inc(1.0);
        }
        breaches_.push_back(record);
      }
    } else if (burn_s < spec_.burn_threshold) {
      in_breach_[k] = false;  // short window recovered: re-arm
    }
  }
}

}  // namespace rfh
