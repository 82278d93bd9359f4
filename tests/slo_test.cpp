// SLO watchdog unit suite (telemetry/slo.h): the --slo= parse grammar,
// burn-rate arithmetic for floor and ceiling objectives, multi-window
// edge-triggered breach detection with re-arm, event/counter emission
// and the breach digest.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/event_bus.h"
#include "obs/sinks.h"
#include "telemetry/registry.h"
#include "telemetry/slo.h"
#include "test_util.h"

namespace rfh {
namespace {

TEST(SloParseTest, FullGrammarRoundTrip) {
  const SloParseResult result =
      parse_slo("avail=0.999,p99=250,migrations=40,drops=0.05,short=3,"
                "long=12,burn=2");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.spec.availability_floor, 0.999);
  EXPECT_EQ(result.spec.stream_p99_ms, 250.0);
  EXPECT_EQ(result.spec.migrations_per_epoch, 40.0);
  EXPECT_EQ(result.spec.drop_rate, 0.05);
  EXPECT_EQ(result.spec.short_window, 3u);
  EXPECT_EQ(result.spec.long_window, 12u);
  EXPECT_EQ(result.spec.burn_threshold, 2.0);
  EXPECT_TRUE(result.spec.enabled());
  EXPECT_TRUE(result.spec.objective_enabled(SloObjective::kAvailability));
  EXPECT_EQ(result.spec.target(SloObjective::kStreamP99), 250.0);
}

TEST(SloParseTest, SingleObjectiveWithDefaults) {
  const SloParseResult result = parse_slo("avail=0.99");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.spec.objective_enabled(SloObjective::kAvailability));
  EXPECT_FALSE(result.spec.objective_enabled(SloObjective::kStreamP99));
  EXPECT_FALSE(result.spec.objective_enabled(SloObjective::kMigrationRate));
  EXPECT_FALSE(result.spec.objective_enabled(SloObjective::kDropRate));
  EXPECT_EQ(result.spec.short_window, 5u);
  EXPECT_EQ(result.spec.long_window, 60u);
  EXPECT_EQ(result.spec.burn_threshold, 1.5);
}

TEST(SloParseTest, MalformedInputsRejectedWithReason) {
  EXPECT_FALSE(parse_slo("").ok);               // nothing enabled
  EXPECT_FALSE(parse_slo("short=3,long=9").ok)  // windows but no objective
      << "windows alone must not arm the watchdog";
  EXPECT_FALSE(parse_slo("avail").ok);          // no '='
  EXPECT_FALSE(parse_slo("avail=abc").ok);      // bad number
  EXPECT_FALSE(parse_slo("avail=nan").ok);      // not finite
  EXPECT_FALSE(parse_slo("p99=inf").ok);
  EXPECT_FALSE(parse_slo("avail=1.5").ok);      // out of (0,1)
  EXPECT_FALSE(parse_slo("avail=0").ok);
  EXPECT_FALSE(parse_slo("drops=1").ok);
  EXPECT_FALSE(parse_slo("nines=5").ok);        // unknown key
  EXPECT_FALSE(parse_slo("avail=0.9,short=0").ok);
  EXPECT_FALSE(parse_slo("avail=0.9,short=9,long=3").ok);
  EXPECT_FALSE(parse_slo("avail=0.9,burn=0").ok);
  EXPECT_FALSE(parse_slo("avail=0.9,burn=-1").ok);
  // A window is a whole number of epochs that fits 32 bits: 2.5 is not
  // read as 2, and 1e12 is not cast out of range.
  for (const char* spec :
       {"avail=0.99,short=2.5", "avail=0.99,short=1e12,long=1e12",
        "avail=0.99,long=4294967296", "avail=0.99,short=-1"}) {
    const SloParseResult window = parse_slo(spec);
    EXPECT_FALSE(window.ok) << spec;
    EXPECT_NE(window.error.find("window"), std::string::npos) << spec;
  }
  const SloParseResult bad = parse_slo("avail=0.9,frobnicate=1");
  ASSERT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("frobnicate"), std::string::npos);
}

TEST(SloBurnTest, AvailabilityFloorBurnsAgainstErrorBudget) {
  SloSpec spec;
  spec.availability_floor = 0.99;  // 1% error budget
  spec.short_window = 1;
  spec.long_window = 1;
  SloWatchdog watchdog(spec);
  SloSample sample;
  sample.availability = 0.98;  // 2% errors = 2x budget
  watchdog.observe(0, sample);
  EXPECT_DOUBLE_EQ(watchdog.burn_short(SloObjective::kAvailability), 2.0);
  sample.availability = 1.0;  // no errors = no burn
  watchdog.observe(1, sample);
  EXPECT_DOUBLE_EQ(watchdog.burn_short(SloObjective::kAvailability), 0.0);
}

TEST(SloBurnTest, CeilingObjectivesBurnAsObservedOverTarget) {
  SloSpec spec;
  spec.migrations_per_epoch = 10.0;
  spec.short_window = 1;
  spec.long_window = 1;
  SloWatchdog watchdog(spec);
  SloSample sample;
  sample.migrations = 25.0;
  watchdog.observe(0, sample);
  EXPECT_DOUBLE_EQ(watchdog.burn_short(SloObjective::kMigrationRate), 2.5);
}

TEST(SloWatchdogTest, BreachNeedsBothWindowsAndIsEdgeTriggered) {
  SloSpec spec;
  spec.availability_floor = 0.9;  // 10% budget
  spec.short_window = 2;
  spec.long_window = 4;
  spec.burn_threshold = 1.5;
  SloWatchdog watchdog(spec);
  SloSample good;   // burn 0
  SloSample bad;    // 30% errors = 3x budget
  bad.availability = 0.7;

  // Two bad epochs: short window (mean 3) crosses, but the long window
  // [0, 0, 3, 3] averages 1.5 only at the second epoch — breach fires
  // exactly once, there.
  watchdog.observe(0, good);
  watchdog.observe(1, good);
  watchdog.observe(2, bad);
  EXPECT_TRUE(watchdog.breaches().empty());
  watchdog.observe(3, bad);
  ASSERT_EQ(watchdog.breaches().size(), 1u);
  EXPECT_EQ(watchdog.breaches().front().epoch, 3u);
  EXPECT_EQ(watchdog.breaches().front().objective,
            SloObjective::kAvailability);
  EXPECT_TRUE(watchdog.in_breach(SloObjective::kAvailability));

  // Staying bad does NOT re-fire (edge-triggered)...
  watchdog.observe(4, bad);
  EXPECT_EQ(watchdog.breaches().size(), 1u);
  // ...two good epochs clear the short window and re-arm...
  watchdog.observe(5, good);
  watchdog.observe(6, good);
  EXPECT_FALSE(watchdog.in_breach(SloObjective::kAvailability));
  // ...and a fresh sustained incident fires a second episode.
  watchdog.observe(7, bad);
  watchdog.observe(8, bad);
  EXPECT_EQ(watchdog.breaches().size(), 2u);
}

TEST(SloWatchdogTest, BreachEmitsEventAndCounterWithAmbientCause) {
  SloSpec spec;
  spec.drop_rate = 0.1;
  spec.short_window = 1;
  spec.long_window = 1;
  EventBus bus;
  CaptureSink capture;
  bus.add_sink(&capture);
  MetricRegistry registry;
  // Simulate a prior disturbance the breach should chain to.
  const std::uint64_t fault =
      bus.emit(ServerFailed{0, ServerId{3}});
  bus.set_ambient_cause(fault);
  SloWatchdog watchdog(spec, &bus, &registry);
  SloSample sample;
  sample.drop_rate = 0.5;  // 5x the ceiling
  watchdog.observe(1, sample);
  ASSERT_EQ(watchdog.breaches().size(), 1u);
  const SloBreachRecord& record = watchdog.breaches().front();
  EXPECT_NE(record.cause_id, 0u);
  EXPECT_GT(record.cause_id, fault);
  EXPECT_EQ(test::count_events<SloBreach>(capture), 1u);
  std::ostringstream prom;
  registry.write_prometheus(prom);
  EXPECT_NE(prom.str().find("rfh_slo_breaches_total"), std::string::npos);
  EXPECT_NE(prom.str().find("drop_rate"), std::string::npos);
}

TEST(SloWatchdogTest, DisabledObjectivesNeverBreach) {
  SloSpec spec;
  spec.stream_p99_ms = 100.0;
  spec.short_window = 1;
  spec.long_window = 1;
  SloWatchdog watchdog(spec);
  SloSample sample;
  sample.availability = 0.0;  // catastrophic, but the objective is off
  sample.migrations = 1e9;
  sample.drop_rate = 0.0;
  sample.stream_p99_ms = 50.0;  // the one armed objective is healthy
  for (Epoch e = 0; e < 10; ++e) watchdog.observe(e, sample);
  EXPECT_TRUE(watchdog.breaches().empty());
  EXPECT_EQ(watchdog.burn_short(SloObjective::kAvailability), 0.0);
}

}  // namespace
}  // namespace rfh
