#include "topology/geo.h"

#include <cmath>

namespace rfh {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kEarthRadiusKm = 6371.0;

double deg_to_rad(double deg) noexcept { return deg * kPi / 180.0; }
}  // namespace

double great_circle_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double lat1 = deg_to_rad(a.latitude_deg);
  const double lat2 = deg_to_rad(b.latitude_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.longitude_deg - a.longitude_deg);
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(h));
}

}  // namespace rfh
