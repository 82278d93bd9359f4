#include "topology/world.h"

#include <gtest/gtest.h>

#include <map>

#include "net/graph.h"

namespace rfh {
namespace {

TEST(PaperWorld, HasPaperScale) {
  const World world = build_paper_world();
  EXPECT_EQ(world.topology.datacenter_count(), 10u);
  EXPECT_EQ(world.topology.server_count(), 100u);  // 10 x 1 x 2 x 5
  EXPECT_EQ(world.dc.size(), 10u);
}

TEST(PaperWorld, CountryComposition) {
  // Section III-A: three in America, two in Canada, two in Switzerland,
  // the rest three in China and Japan.
  const World world = build_paper_world();
  std::map<std::string, int> by_country;
  for (const Datacenter& dc : world.topology.datacenters()) {
    ++by_country[dc.country_code];
  }
  EXPECT_EQ(by_country["USA"], 3);
  EXPECT_EQ(by_country["CAN"], 2);
  EXPECT_EQ(by_country["CHE"], 2);
  EXPECT_EQ(by_country["CHN"] + by_country["JPN"], 3);
}

TEST(PaperWorld, ByLetterMapsInOrder) {
  const World world = build_paper_world();
  EXPECT_EQ(world.by_letter('A'), world.dc[0]);
  EXPECT_EQ(world.by_letter('J'), world.dc[9]);
  EXPECT_EQ(world.topology.datacenter(world.by_letter('H')).country_code,
            "CHN");
}

TEST(PaperWorld, GraphIsConnectedWithPositiveWeights) {
  const World world = build_paper_world();
  for (const Link& link : world.links) {
    EXPECT_GT(link.km, 0.0);
    EXPECT_NE(link.a, link.b);
  }
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  EXPECT_TRUE(graph.connected());
}

TEST(PaperWorld, HeterogeneousCapacitiesWithinConfiguredRanges) {
  WorldOptions o;
  const World world = build_paper_world(o);
  bool any_difference = false;
  double first_cap = -1.0;
  for (const Server& s : world.topology.servers()) {
    EXPECT_GE(s.spec.storage_capacity, o.storage_capacity_lo);
    EXPECT_LE(s.spec.storage_capacity, o.storage_capacity_hi);
    EXPECT_GE(s.spec.per_replica_capacity, o.per_replica_capacity_lo);
    EXPECT_LE(s.spec.per_replica_capacity, o.per_replica_capacity_hi);
    EXPECT_GE(s.spec.service_channels, o.service_channels_lo);
    EXPECT_LE(s.spec.service_channels, o.service_channels_hi);
    EXPECT_EQ(s.spec.replication_bandwidth, o.replication_bandwidth);
    EXPECT_EQ(s.spec.migration_bandwidth, o.migration_bandwidth);
    if (first_cap < 0.0) {
      first_cap = s.spec.per_replica_capacity;
    } else if (s.spec.per_replica_capacity != first_cap) {
      any_difference = true;
    }
  }
  // "for every server, their capacities are different from each other"
  EXPECT_TRUE(any_difference);
}

TEST(PaperWorld, DeterministicUnderSeed) {
  const World a = build_paper_world();
  const World b = build_paper_world();
  ASSERT_EQ(a.topology.server_count(), b.topology.server_count());
  for (std::uint32_t i = 0; i < a.topology.server_count(); ++i) {
    const ServerId id{i};
    EXPECT_DOUBLE_EQ(a.topology.server(id).spec.per_replica_capacity,
                     b.topology.server(id).spec.per_replica_capacity);
  }
}

TEST(PaperWorld, DifferentSeedsChangeCapacities) {
  WorldOptions o1;
  WorldOptions o2;
  o2.seed = o1.seed + 1;
  const World a = build_paper_world(o1);
  const World b = build_paper_world(o2);
  bool any_diff = false;
  for (std::uint32_t i = 0; i < a.topology.server_count(); ++i) {
    const ServerId id{i};
    if (a.topology.server(id).spec.per_replica_capacity !=
        b.topology.server(id).spec.per_replica_capacity) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(PaperWorld, LabelsFollowPaperScheme) {
  // Datacenter A's first server sits at NA-USA-GA1-C01-R01-S1.
  const World world = build_paper_world();
  const Datacenter& dc = world.topology.datacenter(world.by_letter('A'));
  EXPECT_EQ(dc.continent, Continent::kNorthAmerica);
  EXPECT_EQ(dc.country_code, "USA");
  EXPECT_EQ(dc.name, "GA1");
  const Server& first = world.topology.server(dc.servers[0]);
  EXPECT_EQ(first.room, dc.rooms[0]);
  EXPECT_EQ(first.rack, world.topology.room(dc.rooms[0]).racks[0]);
}

class SyntheticWorldTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SyntheticWorldTest, ConnectedAtEverySize) {
  const std::uint32_t n = GetParam();
  const World world = build_synthetic_world(n);
  EXPECT_EQ(world.topology.datacenter_count(), n);
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  EXPECT_TRUE(graph.connected());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SyntheticWorldTest,
                         ::testing::Values<std::uint32_t>(1, 2, 3, 4, 5, 8, 13,
                                                          20, 40));

TEST(SyntheticWorld, CustomRackLayout) {
  WorldOptions o;
  o.rooms_per_datacenter = 2;
  o.racks_per_room = 3;
  o.servers_per_rack = 4;
  const World world = build_synthetic_world(5, o);
  EXPECT_EQ(world.topology.server_count(), 5u * 2 * 3 * 4);
}

}  // namespace
}  // namespace rfh
