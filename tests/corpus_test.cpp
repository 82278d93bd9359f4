// Replays every minimized case committed under tests/data/corpus/
// through the differential harness. Each file is a previously
// interesting scenario (shrunk by src/check/shrink.h) that must stay
// divergence-free: a red run here means a behavioural change reached one
// of the regression scenarios the corpus pins down.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "check/case.h"
#include "check/diff.h"
#include "fault/invariants.h"
#include "harness/runner.h"
#include "obs/timeline.h"

namespace rfh {
namespace {

// The five named hostile scenarios the corpus must carry (ISSUE 9):
// correlated regional outage, ring-splitting double partition, cascading
// overload, Byzantine stale statistics, and flapping-link churn under
// stream load.
constexpr const char* kHostileCases[] = {
    "zone_outage_regional",   "ring_split_partition",
    "cascading_overload",     "byzantine_stale_stats",
    "flap_churn_stream",
};

std::vector<std::string> corpus_files() {
  const std::filesystem::path dir =
      std::filesystem::path(RFH_TEST_DATA_DIR) / "corpus";
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(Corpus, HoldsTheSeedScenarios) {
  const std::vector<std::string> files = corpus_files();
  EXPECT_GE(files.size(), 5u);
  // The two scenarios the harness was built to pin down must stay in the
  // corpus: cached routing under datacenter death (now the relay table's
  // whole-DC outage), and the
  // Eq. 15-vs-Eq. 14 suicide/availability boundary.
  const auto holds = [&](const char* name) {
    return std::any_of(files.begin(), files.end(), [&](const std::string& f) {
      return f.find(name) != std::string::npos;
    });
  };
  EXPECT_TRUE(holds("route_memo_dc_outage"));
  EXPECT_TRUE(holds("suicide_availability_boundary"));
}

TEST(Corpus, EveryCaseReplaysDivergenceFree) {
  for (const std::string& file : corpus_files()) {
    const CheckCase::ParseResult parsed = CheckCase::load(file);
    ASSERT_TRUE(parsed.ok) << file << ": " << parsed.error;
    const DiffOutcome outcome = run_check_case(parsed.value);
    EXPECT_TRUE(outcome.ok) << file << ": " << outcome.to_string();
  }
}

TEST(Corpus, FilesAreCanonicalSerializations) {
  // Committed corpus files round-trip bit-exactly, so regenerating a
  // case never produces spurious diffs.
  for (const std::string& file : corpus_files()) {
    const CheckCase::ParseResult parsed = CheckCase::load(file);
    ASSERT_TRUE(parsed.ok) << file << ": " << parsed.error;
    const CheckCase::ParseResult again =
        CheckCase::from_json(parsed.value.to_json());
    ASSERT_TRUE(again.ok) << file;
    EXPECT_EQ(again.value, parsed.value) << file;
  }
}

std::string hostile_path(const char* name) {
  return (std::filesystem::path(RFH_TEST_DATA_DIR) / "corpus" /
          (std::string(name) + ".json"))
      .string();
}

Scenario hostile_scenario(const char* name) {
  const CheckCase::ParseResult parsed = CheckCase::load(hostile_path(name));
  EXPECT_TRUE(parsed.ok) << name << ": " << parsed.error;
  return parsed.value.to_scenario();
}

/// Replay one hostile case under the invariant checker with a flight
/// recorder attached; the store and checker outlive the run.
PolicyRun hostile_fly(const Scenario& scenario, TimelineStore& store,
                      InvariantChecker& checker) {
  return run_policy(scenario, PolicyKind::kRfh, {}, RfhPolicy::Options{},
                    /*trace_sink=*/nullptr, /*metrics=*/nullptr,
                    /*profiler=*/nullptr, &checker, &store);
}

bool is_fault(const TimelineRecord& rec, const char* kind) {
  return rec.type == event_type_index<FaultInjected>() &&
         rec.label != nullptr && std::strcmp(rec.label, kind) == 0;
}

std::uint64_t kind_count(const PolicyRun& run, FaultKind kind) {
  return run.faults_by_kind[static_cast<std::size_t>(kind)];
}

TEST(HostileCorpus, CorpusCarriesAllFiveNamedScenarios) {
  for (const char* name : kHostileCases) {
    EXPECT_TRUE(std::filesystem::exists(hostile_path(name))) << name;
  }
}

// Every hostile plan must run to completion with zero invariant
// violations: the chaos is allowed to hurt availability, never to put
// the cluster into an inconsistent state.
TEST(HostileCorpus, EveryScenarioHoldsEveryInvariant) {
  for (const char* name : kHostileCases) {
    const Scenario scenario = hostile_scenario(name);
    TimelineStore store(scenario.sim.partitions);
    InvariantChecker checker(InvariantChecker::Mode::kRecord);
    const PolicyRun run = hostile_fly(scenario, store, checker);
    EXPECT_GT(run.faults_injected, 0u) << name << ": plan never fired";
    EXPECT_EQ(checker.epochs_checked(),
              static_cast<std::size_t>(scenario.epochs))
        << name;
    EXPECT_TRUE(checker.violations().empty())
        << name << ":\n" << checker.summary();
  }
}

// Correlated regional outage: one zoneoutage injection, every kill of
// that epoch parented to it, and the census count stamped on the record
// matches the number of ServerFailed children.
TEST(HostileCorpus, ZoneOutageChainsEveryRegionalKillToTheInjection) {
  const Scenario scenario = hostile_scenario("zone_outage_regional");
  TimelineStore store(scenario.sim.partitions);
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun run = hostile_fly(scenario, store, checker);
  EXPECT_EQ(kind_count(run, FaultKind::kZoneOutage), 1u);

  const TimelineQuery query(store);
  const TimelineRecord* injection = nullptr;
  for (const TimelineRecord& rec : query.records()) {
    if (is_fault(rec, "zoneoutage")) injection = &rec;
  }
  ASSERT_NE(injection, nullptr);
  EXPECT_EQ(injection->epoch, 6u);
  EXPECT_DOUBLE_EQ(injection->b, 3.0);  // zone index (Asia)
  std::size_t zone_kills = 0;
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type == event_type_index<ServerFailed>() &&
        rec.parent == injection->id) {
      ++zone_kills;
    }
  }
  EXPECT_EQ(zone_kills, static_cast<std::size_t>(injection->a));
  EXPECT_GT(zone_kills, 0u);
  // The zone revives at epoch 14 (recover_after=8).
  std::size_t recoveries = 0;
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type == event_type_index<ServerRecovered>() &&
        rec.epoch == 14u) {
      ++recoveries;
    }
  }
  EXPECT_EQ(recoveries, zone_kills);
}

// Ring-splitting partition: both backbone cuts (C-F and B-D) are
// recorded — together they force every transcontinental path through
// the single I-D chokepoint — each LinkFailed chains to its own
// injection, and both links come back at the restore epoch. (A cut
// that would fully disconnect the graph is refused by the chaos
// layer's partition guard, so the split stops one link short.)
TEST(HostileCorpus, RingSplitRecordsBothCutsAndBothRestores) {
  const Scenario scenario = hostile_scenario("ring_split_partition");
  TimelineStore store(scenario.sim.partitions);
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun run = hostile_fly(scenario, store, checker);
  EXPECT_EQ(kind_count(run, FaultKind::kLinkDown), 2u);

  const TimelineQuery query(store);
  std::size_t failed = 0;
  std::size_t restored = 0;
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type == event_type_index<LinkFailed>()) {
      ++failed;
      const std::vector<TimelineRecord> chain = query.chain(rec.id);
      ASSERT_EQ(chain.size(), 2u);
      EXPECT_TRUE(is_fault(chain.front(), "linkdown"));
      EXPECT_EQ(chain.front().epoch, 5u);
    }
    if (rec.type == event_type_index<LinkRestored>()) {
      ++restored;
      EXPECT_EQ(rec.epoch, 17u);
    }
  }
  EXPECT_EQ(failed, 2u);
  EXPECT_EQ(restored, 2u);
}

// Cascading overload: the flash crowd lands first, then the crash wave
// hits the already-loaded cluster; every crash kill chains back to the
// crash injection, not to the flash crowd.
TEST(HostileCorpus, CascadingOverloadKeepsCrashAndFlashChainsSeparate) {
  const Scenario scenario = hostile_scenario("cascading_overload");
  TimelineStore store(scenario.sim.partitions);
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun run = hostile_fly(scenario, store, checker);
  EXPECT_EQ(kind_count(run, FaultKind::kFlashCrowd), 1u);
  EXPECT_EQ(kind_count(run, FaultKind::kCrash), 1u);

  const TimelineQuery query(store);
  const TimelineRecord* flash = nullptr;
  const TimelineRecord* crash = nullptr;
  for (const TimelineRecord& rec : query.records()) {
    if (is_fault(rec, "flashcrowd")) flash = &rec;
    if (is_fault(rec, "crash")) crash = &rec;
  }
  ASSERT_NE(flash, nullptr);
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(flash->epoch, 4u);
  EXPECT_DOUBLE_EQ(flash->b, 5.0);  // demand multiplier
  EXPECT_EQ(crash->epoch, 8u);
  std::size_t crash_kills = 0;
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type != event_type_index<ServerFailed>()) continue;
    EXPECT_EQ(rec.parent, crash->id)
        << "kill chained to the wrong disturbance";
    ++crash_kills;
  }
  EXPECT_EQ(crash_kills, 4u);
}

// Byzantine stale statistics: three servers freeze their smoothed load
// series at epoch 4 and thaw at epoch 22; each transition is recorded
// once, and the frozen servers never diverge the replay (the corpus
// divergence test covers the oracle side).
TEST(HostileCorpus, StaleStatsFreezeAndThawBracketTheWindow) {
  const Scenario scenario = hostile_scenario("byzantine_stale_stats");
  TimelineStore store(scenario.sim.partitions);
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun run = hostile_fly(scenario, store, checker);
  EXPECT_EQ(kind_count(run, FaultKind::kStaleStats), 1u);

  const TimelineQuery query(store);
  std::vector<std::uint32_t> frozen_servers;
  std::vector<std::uint32_t> thawed_servers;
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type != event_type_index<StatsFrozen>()) continue;
    if (rec.a == 1.0) {
      EXPECT_EQ(rec.epoch, 4u);
      frozen_servers.push_back(rec.server);
    } else {
      EXPECT_EQ(rec.epoch, 22u);
      thawed_servers.push_back(rec.server);
    }
  }
  std::sort(frozen_servers.begin(), frozen_servers.end());
  std::sort(thawed_servers.begin(), thawed_servers.end());
  EXPECT_EQ(frozen_servers.size(), 3u);
  EXPECT_EQ(thawed_servers, frozen_servers)
      << "every frozen server must thaw, and nothing else";
  // The freezes chain to the stalestats injection.
  const TimelineRecord* injection = nullptr;
  for (const TimelineRecord& rec : query.records()) {
    if (is_fault(rec, "stalestats")) injection = &rec;
  }
  ASSERT_NE(injection, nullptr);
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type == event_type_index<StatsFrozen>() && rec.a == 1.0) {
      EXPECT_EQ(rec.parent, injection->id);
    }
  }
}

// Flapping link + rolling churn under stream load: the flap re-injects
// on its period, every churn wave's kills are parented to that wave's
// injection, and chains never cross waves.
TEST(HostileCorpus, FlapChurnKeepsWaveChainsSeparate) {
  const Scenario scenario = hostile_scenario("flap_churn_stream");
  TimelineStore store(scenario.sim.partitions);
  InvariantChecker checker(InvariantChecker::Mode::kRecord);
  const PolicyRun run = hostile_fly(scenario, store, checker);
  EXPECT_GE(kind_count(run, FaultKind::kLinkFlap), 2u);
  // Waves at epochs 6, 10, 14, 18 (`until` is exclusive).
  EXPECT_EQ(kind_count(run, FaultKind::kChurn), 4u);

  const TimelineQuery query(store);
  for (const TimelineRecord& rec : query.records()) {
    if (rec.type != event_type_index<ServerFailed>()) continue;
    const TimelineRecord* parent = query.find(rec.parent);
    ASSERT_NE(parent, nullptr) << "kill #" << rec.id << " has no parent";
    EXPECT_TRUE(is_fault(*parent, "churn"));
    EXPECT_EQ(parent->epoch, rec.epoch);
  }
}

}  // namespace
}  // namespace rfh
