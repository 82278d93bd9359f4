// Physical topology: datacenter -> room -> rack -> server hierarchy.
//
// This is the substrate every policy reasons about. It is immutable once
// built except for server liveness, which the simulation engine toggles
// for failure injection (a dead server keeps its slot so IDs stay stable,
// matching how the paper removes 30 random servers at epoch 290 and lets
// the system recover).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "topology/geo.h"

namespace rfh {

/// Per-server capacities. The paper states "for every server, their
/// capacities are different from each other, according to their own
/// physical condition" — world.h draws these heterogeneously from a
/// seeded generator.
struct ServerSpec {
  /// Maximum disk storage (Table I: 10 GB).
  Bytes storage_capacity = gib(10);
  /// Queries one hosted replica can absorb per epoch (paper's C_ikl).
  double per_replica_capacity = 2.0;
  /// Service channels for the M/G/c blocking model (paper's c_i, Eq. 18).
  std::uint32_t service_channels = 6;
  /// Replication bandwidth (Table I: 300 MB/epoch).
  BytesPerEpoch replication_bandwidth = mib(300);
  /// Migration bandwidth (Table I: 100 MB/epoch).
  BytesPerEpoch migration_bandwidth = mib(100);
  /// Virtual-node hosting limit ("a physical node hosts an amount of
  /// virtual nodes within its capacity limit").
  std::uint32_t max_vnodes = 16;
};

struct Server {
  ServerId id;
  RackId rack;
  RoomId room;
  DatacenterId datacenter;
  ServerSpec spec;
};

struct Rack {
  RackId id;
  RoomId room;
  DatacenterId datacenter;
  std::vector<ServerId> servers;
};

struct Room {
  RoomId id;
  DatacenterId datacenter;
  std::vector<RackId> racks;
};

struct Datacenter {
  DatacenterId id;
  std::string name;          // short name, e.g. "GA1"
  std::string country_code;  // "USA"
  Continent continent = Continent::kNorthAmerica;
  GeoPoint location;
  std::vector<RoomId> rooms;
  std::vector<ServerId> servers;  // flattened, in creation order
};

/// Immutable hierarchy with O(1) lookups in every direction.
class Topology {
 public:
  DatacenterId add_datacenter(std::string name, std::string country_code,
                              Continent continent, GeoPoint location);
  RoomId add_room(DatacenterId dc);
  RackId add_rack(RoomId room);
  ServerId add_server(RackId rack, const ServerSpec& spec);

  [[nodiscard]] std::size_t datacenter_count() const noexcept {
    return datacenters_.size();
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return servers_.size();
  }

  [[nodiscard]] const Datacenter& datacenter(DatacenterId id) const;
  [[nodiscard]] const Room& room(RoomId id) const;
  [[nodiscard]] const Rack& rack(RackId id) const;
  [[nodiscard]] const Server& server(ServerId id) const;

  [[nodiscard]] const std::vector<Datacenter>& datacenters() const noexcept {
    return datacenters_;
  }
  [[nodiscard]] const std::vector<Server>& servers() const noexcept {
    return servers_;
  }

  /// All servers hosted in a datacenter, in creation order.
  [[nodiscard]] const std::vector<ServerId>& servers_in(DatacenterId dc) const;

  /// Great-circle distance between two datacenters in kilometres.
  [[nodiscard]] double distance_km(DatacenterId a, DatacenterId b) const;

  /// Availability level (paper Section II-A) between two servers, read
  /// from the hierarchy ids of the most specific domain they share:
  ///   5  different datacenters           (highest diversity)
  ///   4  same datacenter, different rooms
  ///   3  same room, different racks
  ///   2  same rack, different servers
  ///   1  same server                     (no diversity)
  [[nodiscard]] std::uint32_t availability_level(ServerId a, ServerId b) const;

 private:
  std::vector<Datacenter> datacenters_;
  std::vector<Room> rooms_;
  std::vector<Rack> racks_;
  std::vector<Server> servers_;
};

}  // namespace rfh
