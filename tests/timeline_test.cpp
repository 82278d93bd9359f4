// TimelineStore / TimelineQuery unit suite (obs/timeline.h): budget
// clamps, ring eviction order, deterministic reservoir sampling, the
// summary filter, cause-chain walking, per-partition history, the why()
// query and the one-line record rendering.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_bus.h"
#include "obs/timeline.h"

namespace rfh {
namespace {

ServerFailed failed(Epoch epoch, std::uint32_t server) {
  return ServerFailed{epoch, ServerId{server}};
}

TrafficShift shift(Epoch epoch, std::uint32_t partition, double before,
                   double after) {
  return TrafficShift{epoch, PartitionId{partition}, before, after};
}

ReplicaAdded replica(Epoch epoch, std::uint32_t partition) {
  ReplicaAdded event;
  event.epoch = epoch;
  event.partition = PartitionId{partition};
  event.source = ServerId{5};
  event.target = ServerId{7};
  event.cost = 0.5;
  event.why.rule = DecisionRule::kOverloadHub;
  event.why.observed = 12.0;
  event.why.threshold = 4.0;
  return event;
}

TEST(TimelineRecordTest, CondensesDecisionEventWithEnvelope) {
  const TimelineRecord rec =
      make_timeline_record(Event{replica(9, 3)}, TraceMeta{42, 17});
  EXPECT_EQ(rec.id, 42u);
  EXPECT_EQ(rec.parent, 17u);
  EXPECT_EQ(rec.epoch, 9u);
  EXPECT_EQ(rec.partition, 3u);
  EXPECT_EQ(rec.server, 7u);  // target
  EXPECT_EQ(rec.aux, 5u);     // source
  EXPECT_EQ(rec.a, 12.0);     // observed
  EXPECT_EQ(rec.b, 4.0);      // threshold
  EXPECT_EQ(rec.type, event_type_index<ReplicaAdded>());
  EXPECT_EQ(static_cast<DecisionRule>(rec.code), DecisionRule::kOverloadHub);
}

TEST(TimelineStoreTest, BudgetClampsRingCapacities) {
  const TimelineStore small(4, /*byte_budget=*/0);
  EXPECT_EQ(small.ring_capacity(), TimelineStore::kMinRing);
  EXPECT_EQ(small.global_capacity(), 64u);
  EXPECT_EQ(small.reservoir_capacity(), 64u);

  const TimelineStore big(4, std::size_t{1} << 30);
  EXPECT_EQ(big.ring_capacity(), TimelineStore::kMaxRing);
  EXPECT_EQ(big.global_capacity(), 65536u);
  EXPECT_GT(big.reservoir_capacity(), 64u);
  // The default store stays within (a small multiple of) its budget even
  // when fully loaded — the whole point of the flight recorder.
  const TimelineStore stock(64);
  EXPECT_LE(stock.reservoir_capacity() +
                stock.global_capacity() + 64 * stock.ring_capacity(),
            2 * TimelineStore::kDefaultByteBudget / sizeof(TimelineRecord));
}

TEST(TimelineStoreTest, RingEvictsOldestFirstAndKeepsNewestInOrder) {
  TimelineStore store(1, /*byte_budget=*/0);  // kMinRing-sized rings
  EventBus bus;
  bus.add_sink(&store);
  const std::size_t cap = store.ring_capacity();
  const std::size_t emitted = cap + 10;
  for (std::size_t i = 0; i < emitted; ++i) {
    bus.emit(shift(static_cast<Epoch>(i), 0, 1.0, 2.0));
  }
  EXPECT_EQ(store.total_recorded(), emitted);
  EXPECT_EQ(store.evicted(), emitted - cap);
  // Evicted records were offered to the reservoir, so nothing is lost
  // while the sample fits.
  EXPECT_EQ(store.sampled(), emitted - cap);
  // The ring keeps exactly the newest `cap` records; with everything
  // retained somewhere, the snapshot is the full emission in id order.
  const std::vector<TimelineRecord> all = store.snapshot();
  ASSERT_EQ(all.size(), emitted);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, i + 1) << "snapshot out of id order at " << i;
  }
  TimelineQuery query(store);
  const std::vector<TimelineRecord> ring_only =
      query.partition_history(PartitionId{0});
  ASSERT_EQ(ring_only.size(), emitted);  // rings + sampled evictions
}

TEST(TimelineStoreTest, SummaryEventsAreNeverRecorded) {
  TimelineStore store(1);
  EpochCompleted done;
  done.epoch = 3;
  done.total_queries = 100.0;
  done.replications = 1;
  done.total_replicas = 12;
  store.on_event(Event{done}, TraceMeta{1, 0});
  store.on_event(Event{PhaseSpan{3, "routing", 0.0, 0.5, 1.0}},
                 TraceMeta{2, 0});
  EXPECT_EQ(store.total_recorded(), 0u);
  store.on_event(Event{failed(3, 1)}, TraceMeta{3, 0});
  EXPECT_EQ(store.total_recorded(), 1u);
}

TEST(TimelineStoreTest, ReservoirKeepSetIgnoresEvictionOrder) {
  // Two partitions, each fed the same per-partition subsequence, but
  // interleaved differently (all of 0 then all of 1, vs alternating).
  // Per-partition ring contents end identical and the same records get
  // evicted — in a different global order. The reservoir keeps bottom-k
  // by splitmix64(id), so the keep-set (and the whole digest) must not
  // depend on that order.
  const std::size_t n = 200;  // >> kMinRing + reservoir floor
  TimelineStore blocked(2, /*byte_budget=*/0);
  for (std::uint32_t p = 0; p < 2; ++p) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = 1 + p * n + i;
      blocked.on_event(Event{shift(static_cast<Epoch>(i), p, 1.0, 2.0)},
                       TraceMeta{id, 0});
    }
  }
  TimelineStore interleaved(2, /*byte_budget=*/0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t p = 0; p < 2; ++p) {
      const std::uint64_t id = 1 + p * n + i;
      interleaved.on_event(Event{shift(static_cast<Epoch>(i), p, 1.0, 2.0)},
                           TraceMeta{id, 0});
    }
  }
  EXPECT_EQ(blocked.evicted(), interleaved.evicted());
  EXPECT_EQ(blocked.sampled(), interleaved.sampled());
  EXPECT_EQ(blocked.digest(), interleaved.digest());
}

TEST(TimelineStoreTest, IdenticalFeedsProduceIdenticalDigestsAndDumps) {
  const auto feed = [](TimelineStore& store) {
    EventBus bus;
    bus.add_sink(&store);
    for (std::uint32_t i = 0; i < 500; ++i) {
      const std::uint64_t parent = bus.emit(failed(i, i % 40));
      bus.emit_caused(parent, shift(i, i % 4, 1.0, 3.0));
      bus.emit_caused(parent, replica(i, i % 4));
    }
    bus.close();
  };
  const std::size_t budget = 1 << 14;  // force heavy eviction + sampling
  TimelineStore a(4, budget);
  TimelineStore b(4, budget);
  feed(a);
  feed(b);
  EXPECT_GT(a.evicted(), 0u);
  EXPECT_EQ(a.digest(), b.digest());
  std::ostringstream dump_a;
  std::ostringstream dump_b;
  a.dump_jsonl(dump_a);
  b.dump_jsonl(dump_b);
  EXPECT_EQ(dump_a.str(), dump_b.str());
  EXPECT_FALSE(dump_a.str().empty());
}

TEST(TimelineQueryTest, FindChainAndWhyWalkParentLinks) {
  TimelineStore store(2);
  EventBus bus;
  bus.add_sink(&store);
  const std::uint64_t fault = bus.emit(failed(5, 9));
  const std::uint64_t rule = bus.emit_caused(
      fault, RuleFired{5, PartitionId{1}, DecisionRule::kAvailabilityFloor,
                       1.0, 2.0, 0.4});
  const std::uint64_t outcome = bus.emit_caused(rule, replica(5, 1));
  bus.emit(shift(6, 1, 1.0, 9.0));  // later, but not an outcome

  const TimelineQuery query(store);
  ASSERT_NE(query.find(outcome), nullptr);
  EXPECT_EQ(query.find(0), nullptr);
  EXPECT_EQ(query.find(9999), nullptr);

  const std::vector<TimelineRecord> chain = query.chain(outcome);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].id, fault);
  EXPECT_EQ(chain[1].id, rule);
  EXPECT_EQ(chain[2].id, outcome);
  EXPECT_FALSE(query.chain_truncated(outcome));

  // why() prefers the latest *outcome* (the ReplicaAdded) over the later
  // TrafficShift, and returns its full chain.
  const std::vector<TimelineRecord> why = query.why(PartitionId{1});
  ASSERT_EQ(why.size(), 3u);
  EXPECT_EQ(why.back().id, outcome);
  // Epoch-capped why() sees no history before the fault.
  EXPECT_TRUE(query.why(PartitionId{1}, 4).empty());
  EXPECT_TRUE(query.why(PartitionId{0}).empty());
}

TEST(TimelineQueryTest, ChainTruncationDetectedWhenAncestorEvicted) {
  // Hand-build records whose root's parent was never retained.
  std::vector<TimelineRecord> records;
  TimelineRecord root;
  root.id = 10;
  root.parent = 3;  // evicted ancestor
  root.type = event_type_index<RuleFired>();
  root.partition = 0;
  TimelineRecord leaf;
  leaf.id = 11;
  leaf.parent = 10;
  leaf.type = event_type_index<ReplicaAdded>();
  leaf.partition = 0;
  records.push_back(leaf);
  records.push_back(root);
  const TimelineQuery query(std::move(records));
  const std::vector<TimelineRecord> chain = query.chain(11);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.front().id, 10u);
  EXPECT_TRUE(query.chain_truncated(11));
  const std::string rendered = render_chain(chain, true);
  EXPECT_NE(rendered.find("evicted"), std::string::npos);
  EXPECT_NE(rendered.find("[#10]"), std::string::npos);
  EXPECT_NE(rendered.find("`- "), std::string::npos);
}

TEST(TimelineQueryTest, PartitionHistoryFiltersByPartition) {
  TimelineStore store(8);
  EventBus bus;
  bus.add_sink(&store);
  bus.emit(replica(1, 3));
  bus.emit(failed(2, 0));  // cluster-wide
  bus.emit(PrimaryPromoted{3, PartitionId{4}, ServerId{8}});
  bus.emit(TrafficShift{4, PartitionId{3}, 1.0, 2.0});
  const TimelineQuery query(store);
  const std::vector<TimelineRecord> three =
      query.partition_history(PartitionId{3});
  ASSERT_EQ(three.size(), 2u);
  EXPECT_EQ(three[0].type, event_type_index<ReplicaAdded>());
  EXPECT_EQ(three[1].type, event_type_index<TrafficShift>());
  EXPECT_EQ(query.partition_history(PartitionId{3}, 3).size(), 1u);
  EXPECT_EQ(query.partition_history(PartitionId{4}).size(), 1u);
  EXPECT_TRUE(query.partition_history(PartitionId{6}).empty());
  EXPECT_TRUE(query.partition_history(PartitionId{9}).empty());
}

TEST(TimelineQueryTest, DcRecordsFindLinkEndpointsBothWays) {
  TimelineStore store(1);
  EventBus bus;
  bus.add_sink(&store);
  bus.emit(LinkFailed{4, DatacenterId{2}, DatacenterId{5}});
  bus.emit(LinkRestored{9, DatacenterId{2}, DatacenterId{5}});
  const TimelineQuery query(store);
  EXPECT_EQ(query.dc_records(DatacenterId{2}).size(), 2u);
  EXPECT_EQ(query.dc_records(DatacenterId{5}).size(), 2u);
  EXPECT_TRUE(query.dc_records(DatacenterId{7}).empty());
  EXPECT_EQ(query.at_epoch(4).size(), 1u);
}

TEST(DescribeRecordTest, ExplainsActionsWithTheFiredInequality) {
  const std::string line = describe_record(
      make_timeline_record(Event{replica(9, 3)}, TraceMeta{1, 0}));
  EXPECT_NE(line.find("partition 3 replicated: server 5 -> server 7"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("overload_hub (tr >= beta*q_bar (Eq. 12)): 12 vs 4"),
            std::string::npos)
      << line;
}

TEST(DescribeRecordTest, NamesEveryCausalEventType) {
  EventBus bus;
  TimelineStore store(4);
  bus.add_sink(&store);
  bus.emit(failed(1, 3));
  bus.emit(ServerRecovered{2, ServerId{3}});
  bus.emit(replica(3, 0));
  bus.emit(Suicide{4, PartitionId{1}, ServerId{6}, {}});
  bus.emit(PrimaryPromoted{5, PartitionId{2}, ServerId{8}});
  bus.emit(Reseeded{6, PartitionId{3}, ServerId{9}});
  bus.emit(ActionDropped{7, PartitionId{0}, ActionKind::kMigrate,
                         DropReason::kBandwidth, ServerId{4}});
  bus.emit(FaultInjected{8, "crash", 5, DatacenterId{}, DatacenterId{},
                         DatacenterId{}, 0.0});
  bus.emit(SloBreach{9, "availability", 0.95, 0.999, 2.0, 1.7});
  for (const TimelineRecord& rec : store.snapshot()) {
    const std::string text = describe_record(rec);
    EXPECT_FALSE(text.empty());
    EXPECT_EQ(text.find('?'), std::string::npos)
        << event_index_name(rec.type) << ": " << text;
  }
}

}  // namespace
}  // namespace rfh
