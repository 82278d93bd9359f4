// All-pairs shortest paths over the datacenter graph.
//
// Routes are computed once per topology change (Dijkstra from every
// source) and cached; queries then walk fixed paths, which is what makes
// "necessary routing paths" — and therefore traffic hubs — well-defined.
// Ties are broken deterministically (lowest-id predecessor) so identical
// seeds give identical figures.
//
// Every path is also laid out once, at construction, in a flat arena
// (source-major, then destination), so the hot readers — the router, the
// hop counts, the transit counts — take a span instead of walking the
// predecessor chain into a fresh vector. path() keeps the walk as the
// independent reference the tests compare the arena against.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/ids.h"
#include "net/graph.h"

namespace rfh {

class ShortestPaths {
 public:
  explicit ShortestPaths(const DcGraph& graph);

  /// Full path from `from` to `to`, inclusive of both endpoints, as a
  /// view into the path arena (valid for this object's lifetime). A path
  /// from a node to itself is the single-element path {from}.
  [[nodiscard]] std::span<const DatacenterId> path_span(
      DatacenterId from, DatacenterId to) const {
    RFH_ASSERT(from.value() < n_ && to.value() < n_);
    const std::size_t cell = from.value() * n_ + to.value();
    RFH_ASSERT_MSG(dist_[cell] != kUnreachable, "no path between datacenters");
    return {path_arena_.data() + path_offsets_[cell],
            path_arena_.data() + path_offsets_[cell + 1]};
  }

  /// The same path as an owned vector, walked from the predecessor table.
  [[nodiscard]] std::vector<DatacenterId> path(DatacenterId from,
                                               DatacenterId to) const;

  /// Shortest-path length in kilometres; +inf if unreachable.
  [[nodiscard]] double distance_km(DatacenterId from, DatacenterId to) const {
    RFH_ASSERT(from.value() < n_ && to.value() < n_);
    return dist_[from.value() * n_ + to.value()];
  }

  /// Number of edges on the shortest path (0 for from == to).
  [[nodiscard]] std::uint32_t hop_count(DatacenterId from,
                                        DatacenterId to) const;

  /// For each datacenter, how many of the single-source shortest paths
  /// from all other datacenters to `to` pass *through* it (endpoints not
  /// counted). This is the static "conjunction node" structure; the
  /// dynamic traffic hubs weight it by live query volume.
  [[nodiscard]] std::vector<std::uint32_t> transit_counts(
      DatacenterId to) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();

 private:
  std::size_t n_;
  // dist_[s * n_ + t]; pred_[s * n_ + t] = predecessor of t on path from s.
  std::vector<double> dist_;
  std::vector<DatacenterId> pred_;
  // Path s -> t is path_arena_[path_offsets_[s * n_ + t] ..
  // path_offsets_[s * n_ + t + 1]); empty when t is unreachable from s.
  std::vector<std::uint32_t> path_offsets_;
  std::vector<DatacenterId> path_arena_;
};

}  // namespace rfh
