#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/event_bus.h"
#include "obs/sinks.h"
#include "test_util.h"

namespace rfh {
namespace {

Event sample_replica_added() {
  ReplicaAdded e;
  e.epoch = 7;
  e.partition = PartitionId{3};
  e.source = ServerId{1};
  e.target = ServerId{9};
  e.cost = 2.5;
  e.why.rule = DecisionRule::kOverloadHub;
  e.why.observed = 41.0;
  e.why.threshold = 24.0;
  e.why.q_bar = 12.0;
  e.why.beta = 2.0;
  e.why.replica_count = 2;
  e.why.r_min = 2;
  return e;
}

TEST(EventBus, DisabledWithoutSinksAndEmitIsANoOp) {
  EventBus bus;
  EXPECT_FALSE(bus.enabled());
  bus.emit(ServerFailed{0, ServerId{1}});  // must not crash
  EXPECT_EQ(bus.sink_count(), 0u);
}

TEST(EventBus, DispatchesToEverySinkInOrder) {
  EventBus bus;
  CaptureSink a;
  CaptureSink b;
  bus.add_sink(&a);
  bus.add_sink(&b);
  EXPECT_TRUE(bus.enabled());
  bus.emit(ServerFailed{0, ServerId{1}});
  bus.emit(ServerRecovered{1, ServerId{1}});
  EXPECT_EQ(a.events.size(), 2u);
  EXPECT_EQ(b.events.size(), 2u);
  EXPECT_EQ(test::count_events<ServerFailed>(a), 1u);
  EXPECT_EQ(test::count_events<ServerRecovered>(a), 1u);
}

TEST(EventBus, OwnedSinksAreFlushedOnClose) {
  std::ostringstream out;
  {
    EventBus bus;
    bus.add_sink(std::make_unique<ChromeTraceSink>(out));
    bus.emit(sample_replica_added());
  }  // destructor closes the JSON array
  const std::string trace = out.str();
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("]"), std::string::npos);
}

TEST(EventName, CoversEveryAlternative) {
  EXPECT_STREQ(event_name(Event(ReplicaAdded{})), "ReplicaAdded");
  EXPECT_STREQ(event_name(Event(MigrationExecuted{})), "MigrationExecuted");
  EXPECT_STREQ(event_name(Event(Suicide{})), "Suicide");
  EXPECT_STREQ(event_name(Event(ActionDropped{})), "ActionDropped");
  EXPECT_STREQ(event_name(Event(ServerFailed{})), "ServerFailed");
  EXPECT_STREQ(event_name(Event(ServerRecovered{})), "ServerRecovered");
  EXPECT_STREQ(event_name(Event(PrimaryPromoted{})), "PrimaryPromoted");
  EXPECT_STREQ(event_name(Event(Reseeded{})), "Reseeded");
  EXPECT_STREQ(event_name(Event(LinkFailed{})), "LinkFailed");
  EXPECT_STREQ(event_name(Event(LinkRestored{})), "LinkRestored");
  EXPECT_STREQ(event_name(Event(EpochCompleted{})), "EpochCompleted");
  EXPECT_STREQ(event_name(Event(StreamEpochSummary{})), "StreamEpochSummary");
}

TEST(EventToJson, EpochCompletedCarriesTheWholeReport) {
  EpochCompleted done;
  done.epoch = 4;
  done.mean_path_length = 2.5;
  done.repairs_starved = 3;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    done.dropped_by_reason[r] = static_cast<std::uint32_t>(10 + r);
  }
  const std::string json = event_to_json(Event(done));
  EXPECT_NE(json.find("\"mean_path_length\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"repairs_starved\":3"), std::string::npos) << json;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    const std::string field =
        std::string("\"") + drop_reason_name(static_cast<DropReason>(r)) +
        "\":" + std::to_string(10 + r);
    EXPECT_NE(json.find(field), std::string::npos) << field << " in " << json;
  }
}

TEST(EventToJson, StreamEpochSummaryCarriesThePercentiles) {
  StreamEpochSummary summary;
  summary.epoch = 2;
  summary.p50_ms = 12.5;
  summary.p99_ms = 80.25;
  summary.p999_ms = 301.5;
  const std::string json = event_to_json(Event(summary));
  EXPECT_NE(json.find("\"p50_ms\":12.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_ms\":80.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999_ms\":301.5"), std::string::npos) << json;
}

TEST(EventEpoch, ReadsTheStampedEpoch) {
  EXPECT_EQ(event_epoch(Event(ServerFailed{42, ServerId{1}})), 42u);
  EXPECT_EQ(event_epoch(sample_replica_added()), 7u);
}

TEST(CaptureSink, KeepsEveryEventInArrivalOrder) {
  EventBus bus;
  CaptureSink capture;
  bus.add_sink(&capture);
  for (std::uint32_t e = 0; e < 5; ++e) {
    bus.emit(ServerFailed{e, ServerId{e}});
  }
  ASSERT_EQ(capture.events.size(), 5u);
  for (std::uint32_t e = 0; e < 5; ++e) {
    EXPECT_EQ(event_epoch(capture.events[e]), e);
  }
}

TEST(JsonlSink, OneSelfDescribingObjectPerLine) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.on_event(sample_replica_added(), TraceMeta{});
  sink.on_event(Event(ServerFailed{8, ServerId{2}}), TraceMeta{});
  std::istringstream lines(out.str());
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_EQ(first.front(), '{');
  EXPECT_EQ(first.back(), '}');
  EXPECT_NE(first.find("\"type\":\"ReplicaAdded\""), std::string::npos);
  EXPECT_NE(first.find("\"epoch\":7"), std::string::npos);
  EXPECT_NE(first.find("\"rule\":\"overload_hub\""), std::string::npos);
  EXPECT_NE(first.find("\"inequality\":\"tr >= beta*q_bar (Eq. 12)\""),
            std::string::npos);
  EXPECT_NE(second.find("\"type\":\"ServerFailed\""), std::string::npos);
}

TEST(JsonlSink, InvalidIdsSerializeAsNull) {
  ActionDropped dropped;  // default target is invalid
  dropped.partition = PartitionId{1};
  const std::string json = event_to_json(Event(dropped));
  EXPECT_NE(json.find("\"target\":null"), std::string::npos);
}

// Structural JSON validation: every brace/bracket/quote balances. This is
// what "loads in Perfetto" reduces to for a generated file (Perfetto
// accepts any well-formed trace_event JSON array).
void expect_balanced_json(const std::string& text) {
  int depth_obj = 0;
  int depth_arr = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; EXPECT_GE(depth_obj, 0); break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; EXPECT_GE(depth_arr, 0); break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
}

TEST(ChromeTraceSink, EmitsAWellFormedJsonArrayWithMetadata) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(out);
    sink.on_event(sample_replica_added(), TraceMeta{});
    EpochCompleted done;
    done.epoch = 7;
    done.total_replicas = 130;
    done.dropped_actions = 2;
    sink.on_event(Event(done), TraceMeta{});
    sink.flush();
    sink.flush();  // idempotent
  }
  const std::string trace = out.str();
  expect_balanced_json(trace);
  EXPECT_EQ(trace.front(), '[');
  // Metadata names the process; the instant event carries its args; the
  // epoch is a duration slice; counters feed the replica census track.
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  // Epoch 7 at the default 10 s/epoch => ts 70,000,000 us.
  EXPECT_NE(trace.find("\"ts\":70000000"), std::string::npos);
}

TEST(FilterSink, PassesOnlyListedTypes) {
  CaptureSink capture;
  FilterSink filter(capture, "ReplicaAdded, ActionDropped");
  filter.on_event(sample_replica_added(), TraceMeta{});
  filter.on_event(Event(ServerFailed{1, ServerId{0}}), TraceMeta{});
  filter.on_event(Event(ActionDropped{}), TraceMeta{});
  EXPECT_EQ(capture.events.size(), 2u);
  EXPECT_EQ(test::count_events<ServerFailed>(capture), 0u);
  EXPECT_TRUE(filter.passes("ReplicaAdded"));
  EXPECT_FALSE(filter.passes("ServerFailed"));
}

TEST(FilterSink, EmptySpecPassesEverything) {
  CaptureSink capture;
  FilterSink filter(capture, "");
  filter.on_event(Event(ServerFailed{1, ServerId{0}}), TraceMeta{});
  EXPECT_EQ(capture.events.size(), 1u);
}

TEST(FilterSink, ForwardsTheCausalEnvelopeToTheInnerSink) {
  // A filtered JSONL trace keeps each passed row's "id" and "parent",
  // byte-identical to the same row of an unfiltered trace.
  std::ostringstream filtered_out;
  std::ostringstream full_out;
  JsonlSink filtered_jsonl(filtered_out);
  JsonlSink full_jsonl(full_out);
  FilterSink filter(filtered_jsonl, "ReplicaAdded,ActionDropped");
  EventBus bus;
  bus.add_sink(&filter);
  bus.add_sink(&full_jsonl);
  const std::uint64_t root = bus.emit(ServerFailed{7, ServerId{1}});
  bus.emit_caused(root, sample_replica_added());
  bus.emit_caused(root, ServerRecovered{7, ServerId{1}});
  bus.emit_caused(root, ActionDropped{7, PartitionId{3}, ActionKind::kMigrate,
                                      DropReason::kBandwidth, ServerId{4}});

  std::vector<std::string> full;
  std::istringstream full_lines(full_out.str());
  for (std::string line; std::getline(full_lines, line);) full.push_back(line);
  ASSERT_EQ(full.size(), 4u);

  std::vector<std::string> rows;
  std::istringstream lines(filtered_out.str());
  for (std::string line; std::getline(lines, line);) rows.push_back(line);
  ASSERT_EQ(rows.size(), 2u);
  for (const std::string& row : rows) {
    EXPECT_EQ(row.rfind("{\"id\":", 0), 0u) << row;
    EXPECT_NE(row.find("\"parent\":1,"), std::string::npos) << row;
  }
  EXPECT_EQ(rows[0], full[1]);
  EXPECT_EQ(rows[1], full[3]);
}

TEST(Taxonomy, NamesAreStable) {
  EXPECT_STREQ(drop_reason_name(DropReason::kBandwidth), "bandwidth");
  EXPECT_STREQ(drop_reason_name(DropReason::kStorageCap), "storage_cap");
  EXPECT_STREQ(drop_reason_name(DropReason::kNodeCap), "node_cap");
  EXPECT_STREQ(drop_reason_name(DropReason::kDeadTarget), "dead_target");
  EXPECT_STREQ(drop_reason_name(DropReason::kInvalid), "invalid");
  EXPECT_STREQ(rule_name(DecisionRule::kAvailabilityFloor),
               "availability_floor");
  EXPECT_STREQ(rule_inequality(DecisionRule::kSuicideCold),
               "tr <= delta*q_bar (Eq. 15)");
  EXPECT_STREQ(action_kind_name(ActionKind::kMigrate), "migrate");
}

}  // namespace
}  // namespace rfh
