// Geographic primitives: continents, coordinates, great-circle distance.
//
// The paper's replication cost (Eq. 1) and availability levels depend on
// where servers physically sit; datacenters carry a latitude/longitude so
// inter-datacenter distance d_i is a real kilometre figure rather than an
// arbitrary constant.
#pragma once

namespace rfh {

enum class Continent {
  kNorthAmerica,
  kSouthAmerica,
  kEurope,
  kAsia,
  kAfrica,
  kOceania,
};

struct GeoPoint {
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;
};

/// Great-circle distance in kilometres (haversine, mean Earth radius).
double great_circle_km(const GeoPoint& a, const GeoPoint& b) noexcept;

}  // namespace rfh
