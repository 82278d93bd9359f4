#include "net/shortest_paths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "topology/world.h"

namespace rfh {
namespace {

// Floyd-Warshall oracle.
std::vector<double> floyd_warshall(std::size_t n,
                                   const std::vector<Link>& links) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> d(n * n, inf);
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = 0.0;
  for (const Link& l : links) {
    d[l.a.value() * n + l.b.value()] =
        std::min(d[l.a.value() * n + l.b.value()], l.km);
    d[l.b.value() * n + l.a.value()] =
        std::min(d[l.b.value() * n + l.a.value()], l.km);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        d[i * n + j] = std::min(d[i * n + j], d[i * n + k] + d[k * n + j]);
      }
    }
  }
  return d;
}

std::vector<Link> random_connected_links(std::size_t n, Rng& rng) {
  std::vector<Link> links;
  // Spanning chain plus random extra edges.
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    links.push_back(Link{DatacenterId{i}, DatacenterId{i + 1},
                         1.0 + rng.uniform_real() * 10.0});
  }
  const std::size_t extra = n;
  for (std::size_t e = 0; e < extra; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.uniform(n));
    const auto b = static_cast<std::uint32_t>(rng.uniform(n));
    if (a == b) continue;
    links.push_back(Link{DatacenterId{a}, DatacenterId{b},
                         1.0 + rng.uniform_real() * 10.0});
  }
  return links;
}

class DijkstraRandomGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraRandomGraphTest, MatchesFloydWarshall) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 4 + rng.uniform(12);
  const auto links = random_connected_links(n, rng);
  const DcGraph graph(n, links);
  const ShortestPaths paths(graph);
  const auto oracle = floyd_warshall(n, links);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      EXPECT_NEAR(paths.distance_km(DatacenterId{i}, DatacenterId{j}),
                  oracle[i * n + j], 1e-9)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST_P(DijkstraRandomGraphTest, PathsAreValidAndMatchDistances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const std::size_t n = 4 + rng.uniform(12);
  const auto links = random_connected_links(n, rng);
  const DcGraph graph(n, links);
  const ShortestPaths paths(graph);

  auto edge_km = [&](DatacenterId a, DatacenterId b) {
    double best = std::numeric_limits<double>::infinity();
    for (const Edge& e : graph.neighbors(a)) {
      if (e.to == b) best = std::min(best, e.km);
    }
    return best;
  };

  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const auto p = paths.path(DatacenterId{i}, DatacenterId{j});
      ASSERT_GE(p.size(), 1u);
      EXPECT_EQ(p.front(), DatacenterId{i});
      EXPECT_EQ(p.back(), DatacenterId{j});
      double total = 0.0;
      for (std::size_t k = 0; k + 1 < p.size(); ++k) {
        const double km = edge_km(p[k], p[k + 1]);
        ASSERT_TRUE(std::isfinite(km)) << "path uses a non-edge";
        total += km;
      }
      EXPECT_NEAR(total, paths.distance_km(DatacenterId{i}, DatacenterId{j}),
                  1e-9);
    }
  }
}

TEST_P(DijkstraRandomGraphTest, PathArenaMatchesPredecessorWalk) {
  // The arena spans the router reads must be the predecessor-chain walk,
  // element for element, for every pair.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const std::size_t n = 4 + rng.uniform(12);
  const auto links = random_connected_links(n, rng);
  const DcGraph graph(n, links);
  const ShortestPaths paths(graph);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const auto walked = paths.path(DatacenterId{i}, DatacenterId{j});
      const auto span = paths.path_span(DatacenterId{i}, DatacenterId{j});
      EXPECT_TRUE(std::equal(walked.begin(), walked.end(), span.begin(),
                             span.end()))
          << "i=" << i << " j=" << j;
      EXPECT_EQ(paths.hop_count(DatacenterId{i}, DatacenterId{j}),
                walked.size() - 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraRandomGraphTest,
                         ::testing::Range(0, 8));

TEST(ShortestPaths, SelfPathIsSingleton) {
  const World world = build_paper_world();
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  const ShortestPaths paths(graph);
  const auto p = paths.path(world.dc[3], world.dc[3]);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], world.dc[3]);
  EXPECT_EQ(paths.hop_count(world.dc[3], world.dc[3]), 0u);
  EXPECT_DOUBLE_EQ(paths.distance_km(world.dc[3], world.dc[3]), 0.0);
}

TEST(ShortestPaths, DeterministicAcrossConstructions) {
  const World world = build_paper_world();
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  const ShortestPaths a(graph);
  const ShortestPaths b(graph);
  for (const DatacenterId from : world.dc) {
    for (const DatacenterId to : world.dc) {
      EXPECT_EQ(a.path(from, to), b.path(from, to));
    }
  }
}

TEST(ShortestPaths, PaperWorldAsiaFlowsTransitGateways) {
  // The running example of Section II-A: queries from the Asian
  // datacenters towards A funnel through a small set of gateway
  // datacenters. Verify the structure our link set induces.
  const World world = build_paper_world();
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  const ShortestPaths paths(graph);

  // J (Osaka) reaches A via I (Tokyo) and D (Vancouver).
  const auto from_j = paths.path(world.by_letter('J'), world.by_letter('A'));
  ASSERT_GE(from_j.size(), 3u);
  EXPECT_EQ(from_j[1], world.by_letter('I'));
  EXPECT_NE(std::find(from_j.begin(), from_j.end(), world.by_letter('D')),
            from_j.end());

  // H (Beijing) reaches A via F (Zurich).
  const auto from_h = paths.path(world.by_letter('H'), world.by_letter('A'));
  EXPECT_NE(std::find(from_h.begin(), from_h.end(), world.by_letter('F')),
            from_h.end());
}

TEST(ShortestPaths, TransitCountsOnALine) {
  // 0-1-2-3: paths to 3 transit through 1 and 2.
  std::vector<Link> links;
  for (std::uint32_t i = 0; i < 3; ++i) {
    links.push_back(Link{DatacenterId{i}, DatacenterId{i + 1}, 1.0});
  }
  const DcGraph graph(4, links);
  const ShortestPaths paths(graph);
  const auto counts = paths.transit_counts(DatacenterId{3});
  EXPECT_EQ(counts[0], 0u);  // endpoint of its own path only
  EXPECT_EQ(counts[1], 1u);  // transited by 0
  EXPECT_EQ(counts[2], 2u);  // transited by 0 and 1
  EXPECT_EQ(counts[3], 0u);  // destination never counts
}

TEST(ShortestPaths, TransitCountsIdentifyPaperHubs) {
  const World world = build_paper_world();
  const DcGraph graph(world.topology.datacenter_count(), world.links);
  const ShortestPaths paths(graph);
  const auto counts = paths.transit_counts(world.by_letter('A'));
  // The gateway datacenters carry strictly more transit than the leaf
  // datacenters G, H, J (which are nobody's transit towards A).
  const auto at = [&](char c) {
    return counts[world.by_letter(c).value()];
  };
  EXPECT_EQ(at('G'), 0u);
  EXPECT_EQ(at('J'), 0u);
  EXPECT_GT(at('D'), 0u);
  EXPECT_GT(at('F'), 0u);
}

TEST(ShortestPathsDeath, UnreachableDestination) {
  const std::vector<Link> links{Link{DatacenterId{0}, DatacenterId{1}, 1.0}};
  const DcGraph graph(3, links);
  const ShortestPaths paths(graph);
  EXPECT_TRUE(std::isinf(paths.distance_km(DatacenterId{0}, DatacenterId{2})));
  EXPECT_DEATH(paths.path(DatacenterId{0}, DatacenterId{2}), "");
}

}  // namespace
}  // namespace rfh
