#include "topology/topology.h"

#include "common/assert.h"

namespace rfh {

DatacenterId Topology::add_datacenter(std::string name,
                                      std::string country_code,
                                      Continent continent, GeoPoint location) {
  const DatacenterId id{static_cast<std::uint32_t>(datacenters_.size())};
  datacenters_.push_back(Datacenter{id, std::move(name),
                                    std::move(country_code), continent,
                                    location, {}, {}});
  return id;
}

RoomId Topology::add_room(DatacenterId dc) {
  RFH_ASSERT(dc.value() < datacenters_.size());
  const RoomId id{static_cast<std::uint32_t>(rooms_.size())};
  rooms_.push_back(Room{id, dc, {}});
  datacenters_[dc.value()].rooms.push_back(id);
  return id;
}

RackId Topology::add_rack(RoomId room) {
  RFH_ASSERT(room.value() < rooms_.size());
  const RackId id{static_cast<std::uint32_t>(racks_.size())};
  racks_.push_back(Rack{id, room, rooms_[room.value()].datacenter, {}});
  rooms_[room.value()].racks.push_back(id);
  return id;
}

ServerId Topology::add_server(RackId rack, const ServerSpec& spec) {
  RFH_ASSERT(rack.value() < racks_.size());
  Rack& r = racks_[rack.value()];
  Datacenter& dc = datacenters_[r.datacenter.value()];

  const ServerId id{static_cast<std::uint32_t>(servers_.size())};
  servers_.push_back(Server{id, r.id, r.room, r.datacenter, spec});
  r.servers.push_back(id);
  dc.servers.push_back(id);
  return id;
}

const Datacenter& Topology::datacenter(DatacenterId id) const {
  RFH_ASSERT(id.value() < datacenters_.size());
  return datacenters_[id.value()];
}

const Room& Topology::room(RoomId id) const {
  RFH_ASSERT(id.value() < rooms_.size());
  return rooms_[id.value()];
}

const Rack& Topology::rack(RackId id) const {
  RFH_ASSERT(id.value() < racks_.size());
  return racks_[id.value()];
}

const Server& Topology::server(ServerId id) const {
  RFH_ASSERT(id.value() < servers_.size());
  return servers_[id.value()];
}

const std::vector<ServerId>& Topology::servers_in(DatacenterId dc) const {
  return datacenter(dc).servers;
}

double Topology::distance_km(DatacenterId a, DatacenterId b) const {
  return great_circle_km(datacenter(a).location, datacenter(b).location);
}

std::uint32_t Topology::availability_level(ServerId a, ServerId b) const {
  const Server& x = server(a);
  const Server& y = server(b);
  if (x.datacenter != y.datacenter) return 5;
  if (x.room != y.room) return 4;
  if (x.rack != y.rack) return 3;
  if (a != b) return 2;
  return 1;
}

}  // namespace rfh
