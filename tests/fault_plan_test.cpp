// FaultPlan: grammar parsing, validation, error reporting, and the
// golden-file round-trip (parse -> serialize -> parse is the identity).
#include <gtest/gtest.h>

#include <string>

#include "fault/plan.h"

namespace rfh {
namespace {

FaultEvent crash_at(Epoch at, std::uint32_t count) {
  FaultEvent e;
  e.kind = FaultKind::kCrash;
  e.at = at;
  e.count = count;
  return e;
}

// --- programmatic construction and validation --------------------------

TEST(FaultPlanValidate, AcceptsEveryWellFormedKind) {
  FaultEvent recover;
  recover.kind = FaultKind::kRecover;
  recover.at = 9;
  recover.servers = {ServerId{1}, ServerId{2}};

  FaultEvent outage;
  outage.kind = FaultKind::kDatacenterOutage;
  outage.at = 5;
  outage.dc = DatacenterId{3};

  FaultEvent link;
  link.kind = FaultKind::kLinkDown;
  link.at = 2;
  link.link_a = DatacenterId{0};
  link.link_b = DatacenterId{4};
  link.restore_at = 8;

  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.at = 1;
  flap.until = 21;
  flap.link_a = DatacenterId{1};
  flap.link_b = DatacenterId{2};
  flap.period = 5;
  flap.down = 5;  // boundary: down == period is legal

  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 0;
  churn.until = 50;
  churn.period = 10;
  churn.kill = 2;

  FaultEvent crowd;
  crowd.kind = FaultKind::kFlashCrowd;
  crowd.at = 7;
  crowd.duration = 3;
  crowd.factor = 5.0;

  for (const FaultEvent& e :
       {crash_at(4, 2), recover, outage, link, flap, churn, crowd}) {
    EXPECT_EQ(validate_fault_event(e), "") << fault_kind_name(e.kind);
  }
}

TEST(FaultPlanValidate, RejectsMalformedEvents) {
  // crash: count and servers are mutually exclusive, one required.
  FaultEvent both = crash_at(1, 2);
  both.servers = {ServerId{1}};
  EXPECT_NE(validate_fault_event(both), "");
  EXPECT_NE(validate_fault_event(crash_at(1, 0)), "");

  FaultEvent outage;
  outage.kind = FaultKind::kDatacenterOutage;
  outage.at = 5;  // dc missing
  EXPECT_NE(validate_fault_event(outage), "");

  FaultEvent self_link;
  self_link.kind = FaultKind::kLinkDown;
  self_link.at = 1;
  self_link.link_a = DatacenterId{2};
  self_link.link_b = DatacenterId{2};
  EXPECT_NE(validate_fault_event(self_link), "");

  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.at = 10;
  flap.until = 5;  // window ends before it starts
  flap.link_a = DatacenterId{0};
  flap.link_b = DatacenterId{1};
  flap.period = 4;
  flap.down = 2;
  EXPECT_NE(validate_fault_event(flap), "");
  flap.until = 30;
  flap.down = 5;  // down > period
  EXPECT_NE(validate_fault_event(flap), "");

  FaultEvent churn;
  churn.kind = FaultKind::kChurn;
  churn.at = 0;
  churn.until = 10;
  churn.period = 2;
  churn.kill = 0;  // must kill someone
  EXPECT_NE(validate_fault_event(churn), "");

  FaultEvent crowd;
  crowd.kind = FaultKind::kFlashCrowd;
  crowd.at = 0;
  crowd.duration = 5;
  crowd.factor = 0.0;  // must be positive
  EXPECT_NE(validate_fault_event(crowd), "");
}

TEST(FaultPlan, HorizonCoversDelayedEffects) {
  FaultPlan plan;
  plan.add(crash_at(30, 1));
  EXPECT_EQ(plan.horizon(), 30u);

  FaultEvent outage;
  outage.kind = FaultKind::kDatacenterOutage;
  outage.at = 40;
  outage.dc = DatacenterId{1};
  outage.recover_after = 25;
  plan.add(outage);
  EXPECT_EQ(plan.horizon(), 65u);  // recovery epoch, not injection epoch

  FaultEvent crowd;
  crowd.kind = FaultKind::kFlashCrowd;
  crowd.at = 60;
  crowd.duration = 10;
  crowd.factor = 2.0;
  plan.add(crowd);
  EXPECT_EQ(plan.horizon(), 70u);
}

// --- parse errors -------------------------------------------------------

TEST(FaultPlanParse, ReportsLineAndField) {
  const auto bad_kind = FaultPlan::parse("crash at=1 count=1\nboom at=2\n");
  ASSERT_FALSE(bad_kind.ok);
  EXPECT_NE(bad_kind.error.find("line 2"), std::string::npos)
      << bad_kind.error;
  EXPECT_NE(bad_kind.error.find("boom"), std::string::npos);

  const auto bad_value = FaultPlan::parse("crash at=1 count=zero\n");
  ASSERT_FALSE(bad_value.ok);
  EXPECT_NE(bad_value.error.find("line 1"), std::string::npos);
  EXPECT_NE(bad_value.error.find("'count'"), std::string::npos)
      << bad_value.error;
  EXPECT_NE(bad_value.error.find("zero"), std::string::npos);

  const auto missing_at = FaultPlan::parse("# header\n\ncrash count=3\n");
  ASSERT_FALSE(missing_at.ok);
  EXPECT_NE(missing_at.error.find("line 3"), std::string::npos)
      << missing_at.error;
  EXPECT_NE(missing_at.error.find("'at'"), std::string::npos);

  const auto bad_semantics =
      FaultPlan::parse("flap at=5 until=50 a=1 b=1 period=4 down=2\n");
  ASSERT_FALSE(bad_semantics.ok);
  EXPECT_NE(bad_semantics.error.find("line 1"), std::string::npos);
  EXPECT_NE(bad_semantics.error.find("must differ"), std::string::npos)
      << bad_semantics.error;

  const auto unknown_field = FaultPlan::parse("crash at=1 count=2 wat=3\n");
  ASSERT_FALSE(unknown_field.ok);
  EXPECT_NE(unknown_field.error.find("'wat'"), std::string::npos)
      << unknown_field.error;

  // A non-finite factor is malformed, not a multiplier of inf demand.
  for (const char* factor : {"inf", "nan", "-inf"}) {
    const auto non_finite = FaultPlan::parse(
        std::string("flashcrowd at=1 duration=2 factor=") + factor + "\n");
    ASSERT_FALSE(non_finite.ok) << factor;
    EXPECT_NE(non_finite.error.find("'factor'"), std::string::npos)
        << non_finite.error;
  }

  const auto missing_file = FaultPlan::parse_file("/no/such/plan.txt");
  ASSERT_FALSE(missing_file.ok);
  EXPECT_NE(missing_file.error.find("/no/such/plan.txt"), std::string::npos);
}

TEST(FaultPlanParse, RejectsForeignAndRepeatedFields) {
  // A field outside the kind's grammar line used to be dropped silently,
  // and a repeated key was last-one-wins.
  const auto foreign =
      FaultPlan::parse("crash at=1 count=1\ncrash at=2 count=3 dc=4 zone=1\n");
  ASSERT_FALSE(foreign.ok);
  EXPECT_NE(foreign.error.find("line 2"), std::string::npos) << foreign.error;
  EXPECT_NE(foreign.error.find("'dc'"), std::string::npos) << foreign.error;

  const auto repeated =
      FaultPlan::parse("# plan\n\ncrash at=3 at=4 count=1\n");
  ASSERT_FALSE(repeated.ok);
  EXPECT_NE(repeated.error.find("line 3"), std::string::npos)
      << repeated.error;
  EXPECT_NE(repeated.error.find("'at'"), std::string::npos) << repeated.error;

  // The same rule holds for programmatic events.
  FaultEvent crowd;
  crowd.kind = FaultKind::kFlashCrowd;
  crowd.at = 1;
  crowd.duration = 2;
  crowd.factor = 3.0;
  EXPECT_EQ(validate_fault_event(crowd), "");
  crowd.kill = 4;
  EXPECT_NE(validate_fault_event(crowd).find("'kill'"), std::string::npos);
}

TEST(FaultPlanParse, ToleratesCommentsAndWhitespace) {
  const auto parsed = FaultPlan::parse(
      "# full-line comment\n"
      "\n"
      "  crash   at=3\tcount=2   # trailing comment\n"
      "\t\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.plan.size(), 1u);
  EXPECT_EQ(parsed.plan.events()[0].at, 3u);
  EXPECT_EQ(parsed.plan.events()[0].count, 2u);
}

TEST(FaultPlanParse, ExplicitServerLists) {
  const auto parsed = FaultPlan::parse("recover at=9 servers=4,0,19\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const std::vector<ServerId> want{ServerId{4}, ServerId{0}, ServerId{19}};
  EXPECT_EQ(parsed.plan.events()[0].servers, want);

  const auto bad = FaultPlan::parse("recover at=9 servers=4,x\n");
  ASSERT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("'servers'"), std::string::npos) << bad.error;
}

// --- golden round-trip --------------------------------------------------

TEST(FaultPlanGolden, CheckedInSpecRoundTrips) {
  const std::string path =
      std::string(RFH_TEST_DATA_DIR) + "/fault_plan_golden.plan";
  const auto first = FaultPlan::parse_file(path);
  ASSERT_TRUE(first.ok) << first.error;

  // The golden file exercises every event kind.
  bool seen[kFaultKindCount] = {};
  for (const FaultEvent& e : first.plan.events()) {
    seen[static_cast<std::size_t>(e.kind)] = true;
  }
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_TRUE(seen[k]) << "golden plan misses kind "
                         << fault_kind_name(static_cast<FaultKind>(k));
  }

  // parse -> serialize -> parse is the identity on the event list...
  const std::string canonical = first.plan.serialize();
  const auto second = FaultPlan::parse(canonical);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.plan, second.plan);

  // ...and serialize itself is a fixed point from then on.
  EXPECT_EQ(second.plan.serialize(), canonical);
}

}  // namespace
}  // namespace rfh
