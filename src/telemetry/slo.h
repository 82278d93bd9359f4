// Declarative service-level objectives with multi-window burn-rate
// alerting — the watchdog side of the causal flight recorder.
//
// An SloSpec declares up to four objectives over the per-epoch series:
// an availability floor (served fraction of offered queries), a ceiling
// on the streaming p99 latency, a ceiling on the migration rate, and a
// ceiling on the drop rate. Each epoch the caller feeds the watchdog one
// SloSample; the watchdog converts every enabled objective's signal into
// a *burn rate* — how fast the error budget is being consumed, where 1.0
// means "exactly at budget" — and averages it over a short and a long
// window (the SRE multi-window pattern: the short window reacts fast,
// the long window suppresses one-epoch blips). When both windows exceed
// the alert threshold the watchdog enters breach: it appends an
// SloBreachRecord, emits one SloBreach event (chained to the ambient
// disturbance, so forensic queries connect "SLO burned" to "link went
// down"), and bumps rfh_slo_breaches_total{objective=...}. Breaches are
// edge-triggered — one per episode, re-armed when the short window
// recovers below threshold.
//
// Everything here is observational and deterministic: the watchdog never
// feeds simulation state, and its breach sequence is a pure function of
// the sample series, so the breach records are byte-identical across
// --jobs (tests/determinism_test.cpp compares them record for record).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "obs/event_bus.h"

namespace rfh {

class MetricRegistry;

enum class SloObjective : std::uint8_t {
  kAvailability = 0,  // floor on served fraction
  kStreamP99,         // ceiling on streaming p99 latency (ms)
  kMigrationRate,     // ceiling on migrations per epoch
  kDropRate,          // ceiling on the dropped-query fraction
};
inline constexpr std::size_t kSloObjectiveCount = 4;

/// Static-duration objective name: "availability", "stream_p99",
/// "migration_rate", "drop_rate".
[[nodiscard]] const char* slo_objective_name(SloObjective objective) noexcept;

/// Declarative objective set. A negative target disables its objective;
/// the default spec has everything disabled.
struct SloSpec {
  /// Floor on the served fraction (e.g. 0.999 = three nines).
  double availability_floor = -1.0;
  /// Ceiling on the per-epoch streaming p99 latency, in ms.
  double stream_p99_ms = -1.0;
  /// Ceiling on migrations per epoch.
  double migrations_per_epoch = -1.0;
  /// Ceiling on the dropped-query fraction (stream backpressure drops /
  /// arrivals, or the unserved fraction in batch mode).
  double drop_rate = -1.0;
  /// Burn-rate windows, in epochs, and the alert threshold both windowed
  /// means must cross.
  std::uint32_t short_window = 5;
  std::uint32_t long_window = 60;
  double burn_threshold = 1.5;

  [[nodiscard]] bool enabled() const noexcept {
    return availability_floor >= 0.0 || stream_p99_ms >= 0.0 ||
           migrations_per_epoch >= 0.0 || drop_rate >= 0.0;
  }
  [[nodiscard]] bool objective_enabled(SloObjective objective) const noexcept;
  /// The objective's declared target (floor or ceiling; negative when
  /// disabled).
  [[nodiscard]] double target(SloObjective objective) const noexcept;
};

/// Parse result for the --slo=<spec> grammar (mirrors FaultPlan::parse):
/// comma-separated key=value pairs with keys avail, p99, migrations,
/// drops, short, long (whole epochs) and burn — e.g.
/// "avail=0.999,p99=350,burn=2".
struct SloParseResult {
  bool ok = false;
  std::string error;
  SloSpec spec;
};
[[nodiscard]] SloParseResult parse_slo(std::string_view text);

/// One epoch's objective signals, as the caller measured them.
struct SloSample {
  double availability = 1.0;
  double stream_p99_ms = 0.0;
  double migrations = 0.0;
  double drop_rate = 0.0;

  [[nodiscard]] double signal(SloObjective objective) const noexcept;
};

/// One breach episode (the trace's SloBreach event, kept structurally for
/// harness results and the sweep's determinism checks).
struct SloBreachRecord {
  Epoch epoch = 0;
  SloObjective objective = SloObjective::kAvailability;
  /// Long-window mean of the raw signal vs the declared target.
  double observed = 0.0;
  double target = 0.0;
  double burn_short = 0.0;
  double burn_long = 0.0;
  /// Cause id of the emitted SloBreach event (0 without a bus/sink).
  std::uint64_t cause_id = 0;

  friend bool operator==(const SloBreachRecord&,
                         const SloBreachRecord&) = default;
};

class SloWatchdog {
 public:
  /// `bus`, when non-null, receives one SloBreach event per episode;
  /// `registry`, when non-null, gets rfh_slo_breaches_total{objective=}.
  explicit SloWatchdog(const SloSpec& spec, EventBus* bus = nullptr,
                       MetricRegistry* registry = nullptr);

  /// Feed one epoch's signals; evaluates every enabled objective.
  void observe(Epoch epoch, const SloSample& sample);

  [[nodiscard]] const SloSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::vector<SloBreachRecord>& breaches()
      const noexcept {
    return breaches_;
  }
  /// Whether the objective is currently in a breach episode.
  [[nodiscard]] bool in_breach(SloObjective objective) const noexcept {
    return in_breach_[static_cast<std::size_t>(objective)];
  }
  /// Current burn rates (short, long windowed means) for an objective.
  [[nodiscard]] double burn_short(SloObjective objective) const noexcept;
  [[nodiscard]] double burn_long(SloObjective objective) const noexcept;

 private:
  /// Error-budget burn rate of one observation: (1 - availability) /
  /// (1 - floor) for the floor objective, observed / ceiling for the
  /// ceilings. 1.0 = consuming budget exactly at the sustainable rate.
  [[nodiscard]] double burn_of(SloObjective objective,
                               double signal) const noexcept;
  /// Mean of the last `window` entries (or all, when shorter).
  [[nodiscard]] static double window_mean(const std::vector<double>& series,
                                          std::uint32_t window) noexcept;

  SloSpec spec_;
  EventBus* bus_;
  MetricRegistry* registry_ = nullptr;
  /// Raw signal history per objective (index = epoch order observed).
  std::array<std::vector<double>, kSloObjectiveCount> signals_;
  /// Burn history per objective, same indexing.
  std::array<std::vector<double>, kSloObjectiveCount> burns_;
  std::array<bool, kSloObjectiveCount> in_breach_{};
  std::vector<SloBreachRecord> breaches_;
};

}  // namespace rfh
