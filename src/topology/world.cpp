#include "topology/world.h"

#include <array>
#include <string>

#include "common/assert.h"

namespace rfh {

namespace {

struct DcSpec {
  const char* name;
  const char* country;
  Continent continent;
  GeoPoint location;
};

// Paper Section III-A: 3 USA, 2 Canada, 2 Switzerland, 1 China, 2 Japan.
// Letters follow Fig. 1 (A holds the running example's hot partition).
constexpr std::array<DcSpec, kPaperDatacenters> kPaperDcs = {{
    {"GA1", "USA", Continent::kNorthAmerica, {33.7, -84.4}},    // A Atlanta
    {"CA1", "USA", Continent::kNorthAmerica, {37.8, -122.4}},   // B San Francisco
    {"NY1", "USA", Continent::kNorthAmerica, {40.7, -74.0}},    // C New York
    {"BC1", "CAN", Continent::kNorthAmerica, {49.3, -123.1}},   // D Vancouver
    {"ON1", "CAN", Continent::kNorthAmerica, {43.7, -79.4}},    // E Toronto
    {"ZH1", "CHE", Continent::kEurope, {47.4, 8.5}},            // F Zurich
    {"GE1", "CHE", Continent::kEurope, {46.2, 6.1}},            // G Geneva
    {"BJ1", "CHN", Continent::kAsia, {39.9, 116.4}},            // H Beijing
    {"TY1", "JPN", Continent::kAsia, {35.7, 139.7}},            // I Tokyo
    {"OS1", "JPN", Continent::kAsia, {34.7, 135.5}},            // J Osaka
}};

// Undirected edges by paper letter. Chosen so Asia->A flows funnel through
// D/B (trans-Pacific) and F/C (Eurasia); see world.h. A zero km_override
// uses the great-circle distance; H-I carries an inflated weight (a
// backup route that only attracts traffic when the trans-Pacific link
// I-D fails — without it a single link failure would strand Japan).
struct PaperLink {
  char a;
  char b;
  double km_override;
};
constexpr std::array<PaperLink, 12> kPaperLinks = {{
    {'A', 'B', 0.0},
    {'A', 'C', 0.0},
    {'B', 'C', 0.0},
    {'B', 'D', 0.0},
    {'D', 'E', 0.0},
    {'E', 'C', 0.0},
    {'C', 'F', 0.0},
    {'F', 'G', 0.0},
    {'F', 'H', 0.0},
    {'I', 'D', 0.0},
    {'I', 'J', 0.0},
    {'H', 'I', 4000.0},
}};

ServerSpec draw_spec(const WorldOptions& o, Rng& rng) {
  ServerSpec spec;
  spec.storage_capacity = o.storage_capacity_lo +
                          rng.uniform(o.storage_capacity_hi -
                                      o.storage_capacity_lo + 1);
  spec.per_replica_capacity = rng.uniform_real_range(
      o.per_replica_capacity_lo, o.per_replica_capacity_hi);
  spec.service_channels = static_cast<std::uint32_t>(rng.uniform_range(
      static_cast<std::int64_t>(o.service_channels_lo),
      static_cast<std::int64_t>(o.service_channels_hi)));
  spec.replication_bandwidth = o.replication_bandwidth;
  spec.migration_bandwidth = o.migration_bandwidth;
  // Not RNG-drawn, so raising the cap via partitions_hint cannot perturb
  // the capacity draws of an existing seeded world.
  spec.max_vnodes = std::max(o.max_vnodes, o.partitions_hint);
  return spec;
}

void populate_datacenter(Topology& topo, DatacenterId dc,
                         const WorldOptions& o, Rng& rng) {
  for (std::uint32_t room_i = 0; room_i < o.rooms_per_datacenter; ++room_i) {
    const RoomId room = topo.add_room(dc);
    for (std::uint32_t rack_i = 0; rack_i < o.racks_per_room; ++rack_i) {
      const RackId rack = topo.add_rack(room);
      for (std::uint32_t s = 0; s < o.servers_per_rack; ++s) {
        topo.add_server(rack, draw_spec(o, rng));
      }
    }
  }
}

}  // namespace

DatacenterId World::by_letter(char letter) const {
  const auto index = static_cast<std::size_t>(letter - 'A');
  RFH_ASSERT(index < dc.size());
  return dc[index];
}

World build_paper_world(const WorldOptions& options) {
  World world;
  Rng rng = Rng(options.seed).fork(/*tag=*/0x70706F74 /* "topo" */);

  for (const DcSpec& spec : kPaperDcs) {
    const DatacenterId id = world.topology.add_datacenter(
        spec.name, spec.country, spec.continent, spec.location);
    world.dc.push_back(id);
    populate_datacenter(world.topology, id, options, rng);
  }

  world.links.reserve(kPaperLinks.size());
  for (const PaperLink& link : kPaperLinks) {
    const DatacenterId a = world.by_letter(link.a);
    const DatacenterId b = world.by_letter(link.b);
    const double km = link.km_override > 0.0
                          ? link.km_override
                          : world.topology.distance_km(a, b);
    world.links.push_back(Link{a, b, km});
  }
  return world;
}

World build_synthetic_world(std::uint32_t n_datacenters,
                            const WorldOptions& options,
                            std::span<const std::uint32_t> chord_strides) {
  RFH_ASSERT(n_datacenters >= 1);
  World world;
  Rng rng = Rng(options.seed).fork(/*tag=*/0x73796E74 /* "synt" */);

  // Spread datacenters evenly around a latitude band; names DC01, DC02...
  for (std::uint32_t i = 0; i < n_datacenters; ++i) {
    const double lon =
        -180.0 + 360.0 * static_cast<double>(i) /
                     static_cast<double>(n_datacenters);
    const auto continent = static_cast<Continent>(i % 6);
    // += instead of operator+ on temporaries: GCC 12 -O3 raises a
    // spurious -Wrestrict on the latter (PR105651).
    std::string dc_name("DC");
    dc_name += std::to_string(i + 1);
    std::string dc_code("X");
    dc_code += std::to_string(i + 1);
    const DatacenterId id = world.topology.add_datacenter(
        std::move(dc_name), std::move(dc_code), continent, GeoPoint{20.0, lon});
    world.dc.push_back(id);
    populate_datacenter(world.topology, id, options, rng);
  }

  // Ring plus chords: connected and with a nontrivial hub structure for
  // any n >= 4. The legacy chord rule (every 3 hops, diameter O(n/3))
  // applies when no strides are given; explicit log-spaced strides give
  // backbone-like O(log n) diameters for the large-N scaling benches.
  for (std::uint32_t i = 0; i < n_datacenters; ++i) {
    const DatacenterId a = world.dc[i];
    const DatacenterId b = world.dc[(i + 1) % n_datacenters];
    if (n_datacenters > 1 && (i + 1) % n_datacenters != i) {
      world.links.push_back(Link{a, b, world.topology.distance_km(a, b)});
    }
    if (chord_strides.empty()) {
      if (n_datacenters > 4 && i % 3 == 0) {
        const DatacenterId c = world.dc[(i + 3) % n_datacenters];
        world.links.push_back(Link{a, c, world.topology.distance_km(a, c)});
      }
      continue;
    }
    for (const std::uint32_t stride : chord_strides) {
      if (stride >= 2 && stride < n_datacenters && i % stride == 0) {
        const DatacenterId c = world.dc[(i + stride) % n_datacenters];
        world.links.push_back(Link{a, c, world.topology.distance_km(a, c)});
      }
    }
  }
  return world;
}

}  // namespace rfh
