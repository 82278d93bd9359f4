// Declarative fault schedules ("chaos plans").
//
// A FaultPlan is an ordered list of timed fault events — server crashes
// and recoveries, whole-datacenter outages, link failures and periodic
// link flaps, rolling membership churn, and flash-crowd traffic
// multipliers — that a ChaosController (chaos.h) applies to a running
// Simulation through the engine's existing failure-injection primitives.
// Plans are constructible programmatically (add()) or parsed from a small
// line-oriented text spec, and serialize back to the same canonical form,
// so a plan can be checked into a repo, diffed, and round-tripped.
//
// Spec grammar (one event per line; '#' starts a comment; a line names
// each key at most once, and only the keys of its kind):
//
//   crash      at=E (count=N | servers=1,2,3)
//   recover    at=E (count=N | servers=1,2,3)
//   outage     at=E dc=D [recover_after=K]
//   linkdown   at=E a=DA b=DB [restore_at=E2]
//   flap       at=E until=E2 a=DA b=DB period=P down=K
//   churn      at=E until=E2 period=P kill=N [recover=M]
//   flashcrowd at=E duration=K factor=F
//   zoneoutage at=E zone=Z [recover_after=K]
//   stalestats at=E until=E2 (count=N | servers=1,2,3)
//
// Semantics (all epochs are "applied before stepping epoch E"):
//  * crash kills N seeded-random live servers (or the listed ids);
//  * recover revives the M longest-dead chaos victims (or the listed ids);
//  * outage kills every live server of datacenter D; with recover_after,
//    the victims come back K epochs later;
//  * linkdown takes the inter-datacenter link (DA, DB) down, optionally
//    restoring it at epoch E2;
//  * flap holds the link down for the first `down` epochs of every
//    `period`-epoch cycle in [at, until);
//  * churn, every P epochs in [at, until), kills N seeded-random live
//    servers and revives M of the longest-dead chaos victims (a rolling
//    wave: the dead population stays ~N*ceil(age/P) when M == N);
//  * flashcrowd multiplies all query traffic by F for K epochs;
//  * zoneoutage kills every live server of every datacenter whose
//    continent index matches Z (the numeric geo::Continent value) — a
//    correlated regional failure spanning multiple DCs at once; with
//    recover_after, the victims come back K epochs later;
//  * stalestats freezes TrafficStats smoothing for N seeded-random live
//    servers (or the listed ids) over [at, until): the victims keep
//    reporting their epoch-`at` load numbers — a Byzantine stale-stats
//    server feeding Eq. 17 — and thaw at `until`.
//
// This header depends only on common/ — sim depends on fault's controller
// (never the reverse), and the plan itself depends on nothing simulated.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace rfh {

enum class FaultKind : std::uint8_t {
  kCrash = 0,
  kRecover,
  kDatacenterOutage,
  kLinkDown,
  kLinkFlap,
  kChurn,
  kFlashCrowd,
  kZoneOutage,
  kStaleStats,
};
inline constexpr std::size_t kFaultKindCount = 9;

/// Stable lower-case keyword ("crash", ...), used by the spec grammar and
/// the rfh_faults_injected_total{kind=...} telemetry label.
[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;

/// Sentinel for FaultEvent::zone — "no zone set".
inline constexpr std::uint32_t kNoZone = 0xFFFFFFFFu;

/// One scheduled fault. A single aggregate covers every kind; which
/// fields are meaningful (and required) depends on `kind` — see the
/// grammar above and validate_fault_event().
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// First epoch the event applies to (injected before that epoch steps).
  Epoch at = 0;
  /// End of the active window for flap/churn, exclusive.
  Epoch until = 0;
  /// crash/recover/stalestats: how many seeded-random servers (0 with
  /// explicit ids).
  std::uint32_t count = 0;
  /// crash/recover/stalestats: explicit victims (empty with `count`).
  std::vector<ServerId> servers;
  /// outage: the datacenter to take down.
  DatacenterId dc;
  /// outage/zoneoutage: epochs until the victims recover (0 = never).
  Epoch recover_after = 0;
  /// zoneoutage: numeric geo::Continent index of the zone to take down.
  /// Not bounds-checked against the topology here (fault/ knows no geo);
  /// the controller skips zones with no matching datacenters.
  std::uint32_t zone = kNoZone;
  /// linkdown/flap: the link's endpoints.
  DatacenterId link_a;
  DatacenterId link_b;
  /// linkdown: epoch the link comes back (0 = never).
  Epoch restore_at = 0;
  /// flap/churn: cycle length in epochs.
  Epoch period = 0;
  /// flap: down-epochs at the start of each cycle.
  Epoch down = 0;
  /// churn: servers killed per wave.
  std::uint32_t kill = 0;
  /// churn: longest-dead chaos victims revived per wave.
  std::uint32_t recover = 0;
  /// flashcrowd: traffic multiplier.
  double factor = 1.0;
  /// flashcrowd: epochs the multiplier stays in force.
  Epoch duration = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Empty string when `event` is well-formed for its kind — its required
/// fields set, and every field its grammar line does not name left at
/// its default; otherwise a human-readable description of the offending
/// field.
[[nodiscard]] std::string validate_fault_event(const FaultEvent& event);

class FaultPlan {
 public:
  /// Append an event. Asserts validity — programmatic construction with a
  /// malformed event is a caller bug; use parse() for untrusted input.
  void add(const FaultEvent& event);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Last epoch any event of the plan can still act on (e.g. a flap's
  /// `until` or an outage's recovery epoch); 0 for an empty plan.
  [[nodiscard]] Epoch horizon() const noexcept;

  /// Canonical text form: the "# rfh-fault-plan/1" header followed by one
  /// grammar line per event, in plan order. parse(serialize()) is the
  /// identity on the event list.
  [[nodiscard]] std::string serialize() const;

  struct ParseResult;  // defined below (holds a FaultPlan by value)

  /// Parse the text spec; never aborts — malformed input yields ok=false
  /// with the offending line number and field in `error`.
  [[nodiscard]] static ParseResult parse(std::string_view text);

  /// Read and parse a spec file; I/O failures land in `error` too.
  [[nodiscard]] static ParseResult parse_file(const std::string& path);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
};

struct FaultPlan::ParseResult {
  bool ok = false;
  std::string error;  // "line N: ..." when !ok
  FaultPlan plan;
};

}  // namespace rfh
