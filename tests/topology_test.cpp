#include "topology/topology.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "topology/geo.h"

namespace rfh {
namespace {

Topology two_dc_topology() {
  Topology topo;
  const DatacenterId a = topo.add_datacenter("GA1", "USA",
                                             Continent::kNorthAmerica,
                                             GeoPoint{33.7, -84.4});
  const DatacenterId b = topo.add_datacenter("TY1", "JPN", Continent::kAsia,
                                             GeoPoint{35.7, 139.7});
  for (const DatacenterId dc : {a, b}) {
    const RoomId room = topo.add_room(dc);
    for (int rack_i = 0; rack_i < 2; ++rack_i) {
      const RackId rack = topo.add_rack(room);
      for (int s = 0; s < 3; ++s) {
        topo.add_server(rack, ServerSpec{});
      }
    }
  }
  return topo;
}

TEST(Topology, CountsAndHierarchy) {
  const Topology topo = two_dc_topology();
  EXPECT_EQ(topo.datacenter_count(), 2u);
  EXPECT_EQ(topo.server_count(), 12u);
  EXPECT_EQ(topo.servers_in(DatacenterId{0}).size(), 6u);
  EXPECT_EQ(topo.servers_in(DatacenterId{1}).size(), 6u);
}

TEST(Topology, ServerBackPointersConsistent) {
  const Topology topo = two_dc_topology();
  for (const Server& s : topo.servers()) {
    const Rack& rack = topo.rack(s.rack);
    EXPECT_EQ(rack.datacenter, s.datacenter);
    const Room& room = topo.room(s.room);
    EXPECT_EQ(room.datacenter, s.datacenter);
    // The server appears in its rack's and datacenter's lists.
    EXPECT_NE(std::find(rack.servers.begin(), rack.servers.end(), s.id),
              rack.servers.end());
    const auto& dc_servers = topo.datacenter(s.datacenter).servers;
    EXPECT_NE(std::find(dc_servers.begin(), dc_servers.end(), s.id),
              dc_servers.end());
  }
}

TEST(Topology, LabelsEncodePosition) {
  // The paper's label NA-USA-GA1-C01-R02-S1 spells a server's path through
  // the hierarchy; the server's ids carry the same path.
  const Topology topo = two_dc_topology();
  const Datacenter& ga1 = topo.datacenter(DatacenterId{0});
  const Room& room = topo.room(ga1.rooms[0]);
  // First server of DC 0: room 1, rack 1, server 1.
  EXPECT_EQ(topo.server(ServerId{0}).room, ga1.rooms[0]);
  EXPECT_EQ(topo.server(ServerId{0}).rack, room.racks[0]);
  EXPECT_EQ(topo.rack(room.racks[0]).servers[0], ServerId{0});
  // Fourth server of DC 0 is the first in rack 2.
  EXPECT_EQ(topo.server(ServerId{3}).rack, room.racks[1]);
  EXPECT_EQ(topo.rack(room.racks[1]).servers[0], ServerId{3});
  // First server of DC 1 (Tokyo).
  const Server& tokyo = topo.server(ServerId{6});
  EXPECT_EQ(topo.datacenter(tokyo.datacenter).name, "TY1");
  EXPECT_EQ(topo.datacenter(tokyo.datacenter).country_code, "JPN");
  EXPECT_EQ(tokyo.room, topo.datacenter(tokyo.datacenter).rooms[0]);
}

TEST(Topology, ServerRecordFitsOneCacheLine) {
  EXPECT_LE(sizeof(Server), 64u);
}

TEST(Topology, AvailabilityLevelsAcrossHierarchy) {
  const Topology topo = two_dc_topology();
  EXPECT_EQ(topo.availability_level(ServerId{0}, ServerId{0}), 1u);
  EXPECT_EQ(topo.availability_level(ServerId{0}, ServerId{1}), 2u);  // rack
  EXPECT_EQ(topo.availability_level(ServerId{0}, ServerId{3}), 3u);  // room
  EXPECT_EQ(topo.availability_level(ServerId{0}, ServerId{6}), 5u);  // DC
}

TEST(Topology, DistanceSymmetricAndZeroToSelf) {
  const Topology topo = two_dc_topology();
  EXPECT_DOUBLE_EQ(topo.distance_km(DatacenterId{0}, DatacenterId{0}), 0.0);
  EXPECT_DOUBLE_EQ(topo.distance_km(DatacenterId{0}, DatacenterId{1}),
                   topo.distance_km(DatacenterId{1}, DatacenterId{0}));
  // Atlanta-Tokyo is around 11,000 km.
  EXPECT_NEAR(topo.distance_km(DatacenterId{0}, DatacenterId{1}), 11000.0,
              500.0);
}

TEST(Geo, GreatCircleKnownDistances) {
  const GeoPoint nyc{40.7, -74.0};
  const GeoPoint london{51.5, -0.1};
  EXPECT_NEAR(great_circle_km(nyc, london), 5570.0, 60.0);
  EXPECT_DOUBLE_EQ(great_circle_km(nyc, nyc), 0.0);
}

TEST(Topology, SpecIsStoredPerServer) {
  Topology topo;
  const DatacenterId dc = topo.add_datacenter(
      "GA1", "USA", Continent::kNorthAmerica, GeoPoint{});
  const RackId rack = topo.add_rack(topo.add_room(dc));
  ServerSpec spec;
  spec.per_replica_capacity = 7.5;
  spec.max_vnodes = 3;
  const ServerId s = topo.add_server(rack, spec);
  EXPECT_DOUBLE_EQ(topo.server(s).spec.per_replica_capacity, 7.5);
  EXPECT_EQ(topo.server(s).spec.max_vnodes, 3u);
}


// --- availability levels (paper Section II-A) -----------------------------

/// Servers of a hand-built world, named by their position.
struct LevelWorld {
  Topology topo;
  ServerId s1;        // GA1, room 1, rack 1
  ServerId s2;        // GA1, room 1, rack 1
  ServerId rack2;     // GA1, room 1, rack 2
  ServerId room2;     // GA1, room 2, rack 1
  ServerId ny1;       // NY1 (USA): another datacenter
  ServerId ty1;       // TY1 (JPN): another continent and country
  ServerId dc1_usa;   // "DC1" in the USA
  ServerId dc1_can;   // "DC1" in Canada
  ServerId twin_a;    // "GA1" again: same continent, country and name
};

LevelWorld level_world() {
  LevelWorld w;
  Topology& t = w.topo;
  const auto first_rack = [&t](DatacenterId dc) {
    return t.add_rack(t.add_room(dc));
  };
  const DatacenterId ga1 =
      t.add_datacenter("GA1", "USA", Continent::kNorthAmerica, GeoPoint{});
  const RoomId room1 = t.add_room(ga1);
  const RackId rack1 = t.add_rack(room1);
  w.s1 = t.add_server(rack1, ServerSpec{});
  w.s2 = t.add_server(rack1, ServerSpec{});
  w.rack2 = t.add_server(t.add_rack(room1), ServerSpec{});
  w.room2 = t.add_server(t.add_rack(t.add_room(ga1)), ServerSpec{});
  w.ny1 = t.add_server(
      first_rack(t.add_datacenter("NY1", "USA", Continent::kNorthAmerica,
                                  GeoPoint{})),
      ServerSpec{});
  w.ty1 = t.add_server(
      first_rack(t.add_datacenter("TY1", "JPN", Continent::kAsia, GeoPoint{})),
      ServerSpec{});
  w.dc1_usa = t.add_server(
      first_rack(t.add_datacenter("DC1", "USA", Continent::kNorthAmerica,
                                  GeoPoint{})),
      ServerSpec{});
  w.dc1_can = t.add_server(
      first_rack(t.add_datacenter("DC1", "CAN", Continent::kNorthAmerica,
                                  GeoPoint{})),
      ServerSpec{});
  w.twin_a = t.add_server(
      first_rack(t.add_datacenter("GA1", "USA", Continent::kNorthAmerica,
                                  GeoPoint{})),
      ServerSpec{});
  return w;
}

TEST(AvailabilityLevel, SameServerIsLevelOne) {
  const LevelWorld w = level_world();
  EXPECT_EQ(w.topo.availability_level(w.s1, w.s1), 1u);
}

TEST(AvailabilityLevel, SameRackDifferentServer) {
  const LevelWorld w = level_world();
  EXPECT_EQ(w.topo.availability_level(w.s1, w.s2), 2u);
}

TEST(AvailabilityLevel, SameRoomDifferentRack) {
  const LevelWorld w = level_world();
  EXPECT_EQ(w.topo.availability_level(w.s1, w.rack2), 3u);
}

TEST(AvailabilityLevel, SameDatacenterDifferentRoom) {
  const LevelWorld w = level_world();
  EXPECT_EQ(w.topo.availability_level(w.s1, w.room2), 4u);
}

TEST(AvailabilityLevel, DifferentDatacenter) {
  const LevelWorld w = level_world();
  EXPECT_EQ(w.topo.availability_level(w.s1, w.ny1), 5u);
}

TEST(AvailabilityLevel, DifferentCountryOrContinentIsStillLevelFive) {
  const LevelWorld w = level_world();
  EXPECT_EQ(w.topo.availability_level(w.s1, w.ty1), 5u);
}

TEST(AvailabilityLevel, IsSymmetric) {
  const LevelWorld w = level_world();
  const ServerId all[] = {w.s1,  w.s2,      w.rack2,   w.room2, w.ny1,
                          w.ty1, w.dc1_usa, w.dc1_can, w.twin_a};
  for (const ServerId a : all) {
    for (const ServerId b : all) {
      EXPECT_EQ(w.topo.availability_level(a, b),
                w.topo.availability_level(b, a));
    }
  }
}

TEST(AvailabilityLevel, SameDatacenterNameDifferentCountryIsLevelFive) {
  // Two datacenters that happen to share a short name in different
  // countries are distinct failure domains.
  const LevelWorld w = level_world();
  EXPECT_EQ(w.topo.availability_level(w.dc1_usa, w.dc1_can), 5u);
}

TEST(AvailabilityLevel, IdenticallyNamedDatacentersAreLevelFive) {
  // The level reads the datacenter id, not its name: two datacenters with
  // the same continent, country and name are still two failure domains.
  const LevelWorld w = level_world();
  EXPECT_EQ(w.topo.availability_level(w.s1, w.twin_a), 5u);
}

}  // namespace
}  // namespace rfh
