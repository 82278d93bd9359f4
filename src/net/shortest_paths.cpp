#include "net/shortest_paths.h"

#include <algorithm>
#include <queue>

#include "common/assert.h"

namespace rfh {

ShortestPaths::ShortestPaths(const DcGraph& graph)
    : n_(graph.size()),
      dist_(n_ * n_, kUnreachable),
      pred_(n_ * n_, DatacenterId::invalid()),
      path_offsets_(n_ * n_ + 1, 0) {
  using QueueItem = std::pair<double, std::uint32_t>;  // (dist, node)
  for (std::size_t s = 0; s < n_; ++s) {
    auto* dist = &dist_[s * n_];
    auto* pred = &pred_[s * n_];
    dist[s] = 0.0;
    std::priority_queue<QueueItem, std::vector<QueueItem>,
                        std::greater<QueueItem>>
        queue;
    queue.emplace(0.0, static_cast<std::uint32_t>(s));
    while (!queue.empty()) {
      const auto [d, at] = queue.top();
      queue.pop();
      if (d > dist[at]) continue;  // stale entry
      for (const Edge& e : graph.neighbors(DatacenterId{at})) {
        const std::uint32_t to = e.to.value();
        const double nd = d + e.km;
        // Strictly-better relaxation, with a deterministic tie-break on
        // equal distance: prefer the lower-id predecessor.
        if (nd < dist[to] ||
            (nd == dist[to] && pred[to].valid() && at < pred[to].value())) {
          dist[to] = nd;
          pred[to] = DatacenterId{at};
          queue.emplace(nd, to);
        }
      }
    }
  }

  // Lay every path out in the arena: size each one by walking its
  // predecessor chain, then fill it back to front along the same chain.
  for (std::size_t cell = 0; cell < n_ * n_; ++cell) {
    std::size_t length = 0;
    if (dist_[cell] != kUnreachable) {
      const std::size_t s = cell / n_;
      for (std::size_t at = cell % n_; at != s;
           at = pred_[s * n_ + at].value()) {
        ++length;
      }
      ++length;  // the source itself
    }
    const std::size_t end = path_offsets_[cell] + length;
    RFH_ASSERT_MSG(end <= UINT32_MAX, "path arena exceeds 32-bit offsets");
    path_offsets_[cell + 1] = static_cast<std::uint32_t>(end);
  }
  path_arena_.resize(path_offsets_.back());
  for (std::size_t cell = 0; cell < n_ * n_; ++cell) {
    std::size_t slot = path_offsets_[cell + 1];
    if (slot == path_offsets_[cell]) continue;  // unreachable
    const std::size_t s = cell / n_;
    for (std::size_t at = cell % n_; at != s;
         at = pred_[s * n_ + at].value()) {
      path_arena_[--slot] = DatacenterId{static_cast<std::uint32_t>(at)};
    }
    path_arena_[--slot] = DatacenterId{static_cast<std::uint32_t>(s)};
  }
}

std::vector<DatacenterId> ShortestPaths::path(DatacenterId from,
                                              DatacenterId to) const {
  RFH_ASSERT(from.value() < n_ && to.value() < n_);
  RFH_ASSERT_MSG(dist_[from.value() * n_ + to.value()] != kUnreachable,
                 "no path between datacenters");
  std::vector<DatacenterId> reversed;
  DatacenterId at = to;
  while (at != from) {
    reversed.push_back(at);
    at = pred_[from.value() * n_ + at.value()];
    RFH_ASSERT_MSG(at.valid(), "broken predecessor chain");
  }
  reversed.push_back(from);
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

std::uint32_t ShortestPaths::hop_count(DatacenterId from,
                                       DatacenterId to) const {
  return static_cast<std::uint32_t>(path_span(from, to).size() - 1);
}

std::vector<std::uint32_t> ShortestPaths::transit_counts(
    DatacenterId to) const {
  std::vector<std::uint32_t> counts(n_, 0);
  for (std::size_t s = 0; s < n_; ++s) {
    if (s == to.value()) continue;
    const auto p =
        path_span(DatacenterId{static_cast<std::uint32_t>(s)}, to);
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      ++counts[p[i].value()];
    }
  }
  return counts;
}

}  // namespace rfh
