// A CheckCase is one self-contained differential-test scenario: the
// world shape, the Table I coefficients, the workload and an optional
// fault plan, all keyed by a single seed. Cases round-trip through a
// small flat-JSON form ("rfh-check-case/1") so a failing fuzz input can
// be shrunk, committed under tests/data/corpus/, and replayed later with
// `rfh_check --replay <case.json>`.
//
// The JSON codec here is deliberately minimal: one flat object of
// string / number / bool fields, doubles printed with %.17g and parsed
// with from_chars (common/parse.h: finite values only) so
// serialize(parse(x)) is bit-exact. The fault plan is
// embedded as its canonical text spec (fault/plan.h) in a JSON string.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fault/plan.h"
#include "harness/scenario.h"

namespace rfh {

struct CheckCase {
  std::uint64_t seed = 42;

  // --- world shape -------------------------------------------------------
  /// Scenario::datacenters: 0 is the paper world, N a synthetic ring.
  std::uint32_t datacenters = 0;
  std::uint32_t rooms_per_datacenter = 1;
  std::uint32_t racks_per_room = 2;
  std::uint32_t servers_per_rack = 5;

  // --- run shape ---------------------------------------------------------
  std::uint32_t partitions = 16;
  Epoch epochs = 24;
  WorkloadKind workload = WorkloadKind::kUniform;
  double zipf = 0.8;

  // --- Table I coefficients ---------------------------------------------
  double alpha = 0.2;
  bool alpha_weights_history = true;
  double beta = 2.0;
  double gamma = 1.5;
  double delta = 0.2;
  double mu = 1.0;
  double phi = 0.7;
  double failure_rate = 0.1;
  double min_availability = 0.8;

  // --- redundancy --------------------------------------------------------
  RedundancyMode redundancy = RedundancyMode::kReplica;
  std::uint32_t ec_k = 4;
  std::uint32_t ec_m = 2;

  // --- chaos -------------------------------------------------------------
  FaultPlan fault_plan;

  /// The equivalent harness scenario (world seeded from `seed` too, like
  /// the CLI's --seed flag).
  [[nodiscard]] Scenario to_scenario() const;

  /// Canonical flat-JSON form; from_json(to_json()) == *this.
  [[nodiscard]] std::string to_json() const;

  struct ParseResult;  // defined below (holds a CheckCase by value)

  /// Parse the JSON form; never aborts — malformed input yields ok=false.
  [[nodiscard]] static ParseResult from_json(std::string_view text);

  /// File I/O convenience wrappers; load() reports read/parse errors via
  /// ParseResult, save() returns false on write failure.
  [[nodiscard]] static ParseResult load(const std::string& path);
  [[nodiscard]] bool save(const std::string& path) const;

  friend bool operator==(const CheckCase&, const CheckCase&) = default;
};

struct CheckCase::ParseResult {
  bool ok = false;
  std::string error;  // set when !ok
  CheckCase value;
};

/// Stable lower-case name used in the JSON "workload" field.
[[nodiscard]] const char* workload_kind_name(WorkloadKind kind) noexcept;

}  // namespace rfh
