#include "check/case.h"

#include <gtest/gtest.h>

#include <string>

#include "check/diff.h"
#include "check/fuzzer.h"
#include "check/shrink.h"

namespace rfh {
namespace {

CheckCase sample_case() {
  CheckCase c;
  c.seed = 7;
  c.racks_per_room = 1;
  c.servers_per_rack = 3;
  c.partitions = 6;
  c.epochs = 12;
  c.workload = WorkloadKind::kHotspotShift;
  c.zipf = 1.1;
  c.alpha = 0.35;
  c.alpha_weights_history = false;
  c.beta = 1.75;
  c.gamma = 0.9;
  c.delta = 0.15;
  c.mu = 0.6;
  c.phi = 0.85;
  c.failure_rate = 0.2;
  c.min_availability = 0.9;
  FaultEvent ev;
  ev.kind = FaultKind::kCrash;
  ev.at = 4;
  ev.count = 2;
  c.fault_plan.add(ev);
  return c;
}

TEST(CheckCaseJson, RoundTripsDefaults) {
  const CheckCase c;
  const CheckCase::ParseResult parsed = CheckCase::from_json(c.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value, c);
}

TEST(CheckCaseJson, RoundTripsEveryFieldIncludingFaultPlan) {
  const CheckCase c = sample_case();
  const CheckCase::ParseResult parsed = CheckCase::from_json(c.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value, c);
  // Serialization is canonical: serialize(parse(serialize(x))) is
  // bit-identical, so committed corpus files never churn.
  EXPECT_EQ(parsed.value.to_json(), c.to_json());
}

TEST(CheckCaseJson, RejectsMalformedInput) {
  EXPECT_FALSE(CheckCase::from_json("").ok);
  EXPECT_FALSE(CheckCase::from_json("not json").ok);
  EXPECT_FALSE(CheckCase::from_json("{").ok);
  EXPECT_FALSE(CheckCase::from_json("[1, 2]").ok);
  // Nested objects are outside the flat schema.
  EXPECT_FALSE(
      CheckCase::from_json(
          R"({"schema": "rfh-check-case/1", "seed": {"x": 1}})")
          .ok);
}

TEST(CheckCaseJson, RejectsWrongSchemaAndUnknownFields) {
  EXPECT_FALSE(CheckCase::from_json(R"({"seed": 1})").ok);
  EXPECT_FALSE(
      CheckCase::from_json(R"({"schema": "rfh-check-case/999", "seed": 1})")
          .ok);
  const CheckCase::ParseResult unknown = CheckCase::from_json(
      R"({"schema": "rfh-check-case/1", "not_a_field": 3})");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("not_a_field"), std::string::npos);
}

TEST(CheckCaseJson, DatacentersAppearOnlyForSyntheticWorlds) {
  CheckCase c = sample_case();
  EXPECT_EQ(c.to_json().find("datacenters\""), std::string::npos);
  c.datacenters = 100;
  const CheckCase::ParseResult parsed = CheckCase::from_json(c.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value, c);
  EXPECT_EQ(parsed.value.to_scenario().datacenters, 100u);
  // The flash crowd's stages name paper datacenters.
  c.workload = WorkloadKind::kFlashCrowd;
  EXPECT_FALSE(CheckCase::from_json(c.to_json()).ok);
}

TEST(CheckCaseJson, RoundTripsErasureRedundancy) {
  CheckCase c = sample_case();
  c.redundancy = RedundancyMode::kErasure;
  c.ec_k = 4;
  c.ec_m = 2;
  const CheckCase::ParseResult parsed = CheckCase::from_json(c.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value, c);
  EXPECT_NE(c.to_json().find(R"js("redundancy": "ec(4,2)")js"),
            std::string::npos);
  // Replica-mode cases never emit the field, so the pre-EC corpus still
  // round-trips byte-identically.
  EXPECT_EQ(sample_case().to_json().find("redundancy"), std::string::npos);
  const Scenario s = c.to_scenario();
  EXPECT_EQ(s.sim.redundancy, RedundancyMode::kErasure);
  EXPECT_EQ(s.sim.ec_k, 4u);
  EXPECT_EQ(s.sim.ec_m, 2u);
}

TEST(CheckCaseJson, RejectsUnsupportedRedundancyModes) {
  // Replay must hard-error on modes it cannot execute — silently falling
  // back to replica would "pass" a case the engine never actually ran.
  const auto with = [](const char* value) {
    return std::string(R"({"schema": "rfh-check-case/1", "redundancy": ")") +
           value + "\"}";
  };
  EXPECT_FALSE(CheckCase::from_json(with("raid5")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("ec(1,2)")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("ec(4,0)")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("ec(12,8)")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("ec(4;2)")).ok);
  const CheckCase::ParseResult bad = CheckCase::from_json(with("raid5"));
  EXPECT_NE(bad.error.find("raid5"), std::string::npos);
}

TEST(CheckCaseJson, RejectsOutOfRangeValues) {
  const auto with = [](const char* key, const char* value) {
    return std::string(R"({"schema": "rfh-check-case/1", ")") + key +
           "\": " + value + "}";
  };
  EXPECT_FALSE(CheckCase::from_json(with("alpha", "0")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("alpha", "1")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("phi", "0")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("phi", "1.5")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("partitions", "0")).ok);
  // The CLI's Table I rules, plus the Eq. 14 inputs whose out-of-range
  // values used to abort the replay inside min_replicas.
  EXPECT_FALSE(CheckCase::from_json(with("beta", "-3")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("gamma", "0")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("delta", "-0.1")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("mu", "-1")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("min_availability", "1")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("failure_rate", "1.5")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("epochs", "0")).ok);
  EXPECT_FALSE(CheckCase::from_json(with("servers_per_rack", "0")).ok);
  EXPECT_FALSE(
      CheckCase::from_json(with("fault_plan", "\"crash at=0\"")).ok);
  // A 32-bit field one past its maximum, or wrapping to a legal value
  // (2^32 + 64 would read as 64), is malformed, and the error names it.
  for (const char* key : {"partitions", "epochs", "datacenters",
                          "rooms_per_datacenter", "racks_per_room",
                          "servers_per_rack"}) {
    for (const char* value : {"4294967296", "4294967360"}) {
      const auto result = CheckCase::from_json(with(key, value));
      EXPECT_FALSE(result.ok) << key << "=" << value;
      EXPECT_NE(result.error.find(key), std::string::npos) << result.error;
    }
  }
  EXPECT_FALSE(
      CheckCase::from_json(with("seed", "18446744073709551616")).ok);
}

TEST(CheckCaseJson, RejectsAFloorBeyondTheCopyCap) {
  // Each value is in range, but Eq. 14 needs more copies than
  // max_replicas_per_partition allows: min_replicas would assert.
  const auto result = CheckCase::from_json(
      R"({"schema": "rfh-check-case/1", "failure_rate": 0.9999,)"
      R"( "min_availability": 0.999})");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("min_availability"), std::string::npos);
  EXPECT_NE(result.error.find("max_replicas_per_partition"),
            std::string::npos);
}

TEST(SimConfigValidate, EqFourteenFloorMustFitTheCopyCap) {
  SimConfig config;
  EXPECT_EQ(validate(config), "");
  config.failure_rate = 0.5;
  config.min_availability = 0.9999;  // 1 - 0.5^14 reaches it
  EXPECT_EQ(validate(config), "");
  EXPECT_EQ(config.availability_floor(), 14u);
  config.min_availability = 0.99999;  // 1 - 0.5^16 falls short
  EXPECT_NE(validate(config).find("max_replicas_per_partition = 16"),
            std::string::npos);
  // In EC mode the floor is the k-of-n tail, at least the full stripe.
  std::string error;
  ASSERT_TRUE(parse_redundancy("ec(4,2)", config, error)) << error;
  config.min_availability = 0.98;  // P(Bin(15, 0.5) >= 4) reaches it
  EXPECT_EQ(validate(config), "");
  EXPECT_EQ(config.availability_floor(), 15u);
  config.min_availability = 0.99;  // P(Bin(16, 0.5) >= 4) falls short
  EXPECT_NE(validate(config), "");
  config.min_availability = 0.8;
  config.max_replicas_per_partition = 5;  // below the 6-fragment stripe
  EXPECT_NE(validate(config), "");
}

TEST(CheckCaseJson, ToScenarioMapsEveryKnob) {
  const CheckCase c = sample_case();
  const Scenario s = c.to_scenario();
  EXPECT_EQ(s.world.seed, c.seed);
  EXPECT_EQ(s.sim.seed, c.seed);
  EXPECT_EQ(s.world.servers_per_rack, c.servers_per_rack);
  EXPECT_EQ(s.sim.partitions, c.partitions);
  EXPECT_EQ(s.epochs, c.epochs);
  EXPECT_EQ(s.workload, c.workload);
  EXPECT_DOUBLE_EQ(s.zipf_exponent, c.zipf);
  EXPECT_DOUBLE_EQ(s.sim.alpha, c.alpha);
  EXPECT_EQ(s.sim.alpha_weights_history, c.alpha_weights_history);
  EXPECT_DOUBLE_EQ(s.sim.storage_limit, c.phi);
  EXPECT_DOUBLE_EQ(s.sim.failure_rate, c.failure_rate);
  EXPECT_DOUBLE_EQ(s.sim.min_availability, c.min_availability);
  EXPECT_EQ(s.fault_plan, c.fault_plan);
}

TEST(Fuzzer, IsDeterministicPerSeed) {
  for (const std::uint64_t seed : {0ull, 1ull, 42ull, 999ull}) {
    const CheckCase a = make_fuzz_case(seed);
    const CheckCase b = make_fuzz_case(seed);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.seed, seed);
  }
  EXPECT_NE(make_fuzz_case(1), make_fuzz_case(2));
}

TEST(Fuzzer, GeneratesOnlyValidRoundTrippableCases) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const CheckCase c = make_fuzz_case(seed);
    EXPECT_GT(c.partitions, 0u);
    EXPECT_GE(c.epochs, 10u);
    EXPECT_GT(c.alpha, 0.0);
    EXPECT_LT(c.alpha, 1.0);
    EXPECT_GT(c.phi, 0.0);
    EXPECT_LE(c.phi, 1.0);
    EXPECT_LE(c.fault_plan.size(), 3u);
    for (const FaultEvent& ev : c.fault_plan.events()) {
      EXPECT_EQ(validate_fault_event(ev), "") << "seed " << seed;
    }
    const CheckCase::ParseResult parsed = CheckCase::from_json(c.to_json());
    ASSERT_TRUE(parsed.ok) << "seed " << seed << ": " << parsed.error;
    EXPECT_EQ(parsed.value, c);
  }
}

TEST(Fuzzer, ReachesTheHostileFaultClauses) {
  // The grammar's newest clauses — correlated zone outages and Byzantine
  // stale-stats windows — must actually appear in the fuzz space, at
  // most one mass-kill (dc outage or zone outage) per case, and every
  // generated event must survive the text round-trip.
  std::size_t zone_outages = 0;
  std::size_t stale_stats = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const CheckCase c = make_fuzz_case(seed);
    std::size_t mass_kills = 0;
    for (const FaultEvent& ev : c.fault_plan.events()) {
      if (ev.kind == FaultKind::kZoneOutage) {
        ++zone_outages;
        ++mass_kills;
        EXPECT_LT(ev.zone, 6u) << "seed " << seed;
      }
      if (ev.kind == FaultKind::kDatacenterOutage) ++mass_kills;
      if (ev.kind == FaultKind::kStaleStats) {
        ++stale_stats;
        EXPECT_GT(ev.until, ev.at) << "seed " << seed;
        EXPECT_GT(ev.count, 0u) << "seed " << seed;
      }
      EXPECT_EQ(validate_fault_event(ev), "") << "seed " << seed;
    }
    EXPECT_LE(mass_kills, 1u) << "seed " << seed;
    const FaultPlan::ParseResult reparsed =
        FaultPlan::parse(c.fault_plan.serialize());
    ASSERT_TRUE(reparsed.ok) << "seed " << seed << ": " << reparsed.error;
    EXPECT_EQ(reparsed.plan.serialize(), c.fault_plan.serialize())
        << "seed " << seed;
  }
  EXPECT_GT(zone_outages, 0u);
  EXPECT_GT(stale_stats, 0u);
}

TEST(Fuzzer, ReachesTheErasureAxis) {
  // EC cases must actually appear in the fuzz space (~1/3 of seeds) with
  // in-grammar parameters, and every one must survive the JSON round-trip.
  std::size_t ec_cases = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const CheckCase c = make_fuzz_case(seed);
    if (c.redundancy != RedundancyMode::kErasure) continue;
    ++ec_cases;
    EXPECT_GE(c.ec_k, 2u) << "seed " << seed;
    EXPECT_LE(c.ec_k, 4u) << "seed " << seed;
    EXPECT_GE(c.ec_m, 1u) << "seed " << seed;
    EXPECT_LE(c.ec_m, 2u) << "seed " << seed;
    const CheckCase::ParseResult parsed = CheckCase::from_json(c.to_json());
    ASSERT_TRUE(parsed.ok) << "seed " << seed << ": " << parsed.error;
    EXPECT_EQ(parsed.value, c);
  }
  EXPECT_GT(ec_cases, 15u);
  EXPECT_LT(ec_cases, 60u);  // replica mode must stay the common case
}

TEST(Differential, DefaultCaseRunsDivergenceFree) {
  CheckCase c;
  c.epochs = 16;
  const DiffOutcome outcome = run_check_case(c);
  EXPECT_TRUE(outcome.ok) << outcome.to_string();
  EXPECT_EQ(outcome.epochs_run, 16u);
  EXPECT_NE(outcome.to_string().find("ok after 16 epochs"),
            std::string::npos);
}

TEST(Differential, FuzzedCasesRunDivergenceFree) {
  // A slice of the fuzz space runs in tier-1 on every build; the CI
  // fuzz-smoke job and `rfh_check --seeds=200` cover much more ground.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const DiffOutcome outcome = run_check_case(make_fuzz_case(seed));
    EXPECT_TRUE(outcome.ok) << "seed " << seed << ": " << outcome.to_string();
  }
}

TEST(Differential, ForcedEc42CasesRunDivergenceFree) {
  // Every fuzz scenario re-run under ec(4,2): the engine and reference
  // must agree fragment-for-fragment, and the EC invariants (fragment
  // census, zone diversity) must hold every epoch. A wider 50-seed pass
  // runs in the CI ec-smoke job via rfh_check.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    CheckCase c = make_fuzz_case(seed);
    c.redundancy = RedundancyMode::kErasure;
    c.ec_k = 4;
    c.ec_m = 2;
    const DiffOutcome outcome = run_check_case(c);
    EXPECT_TRUE(outcome.ok) << "seed " << seed << ": " << outcome.to_string();
  }
}

TEST(Differential, FaultPlanCaseMirrorsFailuresIntoTheReference) {
  // Crash + flashcrowd exercises the event-stream mirroring (ServerFailed
  // batches, traffic multiplier) rather than the pure happy path.
  const DiffOutcome outcome = run_check_case(sample_case());
  EXPECT_TRUE(outcome.ok) << outcome.to_string();
}

TEST(Shrinker, MinimizesToTheFailureBoundary) {
  CheckCase big = sample_case();
  big.epochs = 40;
  big.partitions = 24;
  // Synthetic failure: anything with epochs >= 4 and partitions >= 3
  // "fails", so the minimum is exactly (4, 3) with everything else
  // stripped as far as the reducers go.
  const ShrinkResult r = shrink_case(big, [](const CheckCase& c) {
    return c.epochs >= 4 && c.partitions >= 3;
  });
  EXPECT_EQ(r.smallest.epochs, 4u);
  EXPECT_EQ(r.smallest.partitions, 3u);
  EXPECT_TRUE(r.smallest.fault_plan.empty());
  EXPECT_EQ(r.smallest.servers_per_rack, 1u);
  EXPECT_EQ(r.smallest.racks_per_room, 1u);
  EXPECT_GT(r.accepted, 0u);
  EXPECT_GE(r.attempts, r.accepted);
  // The result still satisfies the predicate — shrinking never trades a
  // failing case for a passing one.
  EXPECT_TRUE(r.smallest.epochs >= 4 && r.smallest.partitions >= 3);
}

TEST(Shrinker, RespectsTheAttemptBudget) {
  CheckCase big = sample_case();
  big.epochs = 4096;
  const ShrinkResult r = shrink_case(
      big, [](const CheckCase&) { return true; }, /*max_attempts=*/10);
  EXPECT_LE(r.attempts, 10u);
}

}  // namespace
}  // namespace rfh
