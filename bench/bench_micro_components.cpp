// Component microbenchmarks (google-benchmark): the hot paths of the
// simulator, so regressions in the substrate are visible independently
// of the figure-level experiments.
#include <benchmark/benchmark.h>

#include "common/erlang.h"
#include "common/rng.h"
#include "harness/scenario.h"
#include "net/graph.h"
#include "net/shortest_paths.h"
#include "ring/ring.h"
#include "routing/router.h"
#include "sim/engine.h"
#include "topology/world.h"

namespace {

void BM_ErlangB(benchmark::State& state) {
  const auto channels = static_cast<std::uint32_t>(state.range(0));
  double offered = 0.7 * channels;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfh::erlang_b(offered, channels));
    offered += 1e-9;  // defeat constant folding across iterations
  }
}
BENCHMARK(BM_ErlangB)->Arg(8)->Arg(64)->Arg(512);

void BM_PoissonSample(benchmark::State& state) {
  rfh::Rng rng(7);
  const double mean = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(mean));
  }
}
BENCHMARK(BM_PoissonSample)->Arg(3)->Arg(300);

void BM_ZipfSample(benchmark::State& state) {
  rfh::Rng rng(7);
  rfh::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(64)->Arg(4096);

void BM_RingLookup(benchmark::State& state) {
  rfh::HashRing ring(16);
  const auto servers = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t s = 0; s < servers; ++s) {
    ring.add_server(rfh::ServerId{s});
  }
  rfh::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.primary(rng.next()));
  }
}
BENCHMARK(BM_RingLookup)->Arg(100)->Arg(1000);

void BM_RingJoin(benchmark::State& state) {
  const auto servers = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    rfh::HashRing ring(16);
    for (std::uint32_t s = 0; s < servers; ++s) {
      ring.add_server(rfh::ServerId{s});
    }
    state.ResumeTiming();
    ring.add_server(rfh::ServerId{servers});
  }
}
BENCHMARK(BM_RingJoin)->Arg(100)->Arg(1000);

void BM_AllPairsShortestPaths(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const rfh::World world = rfh::build_synthetic_world(n);
  const rfh::DcGraph graph(world.topology.datacenter_count(), world.links);
  for (auto _ : state) {
    rfh::ShortestPaths paths(graph);
    benchmark::DoNotOptimize(&paths);
  }
}
BENCHMARK(BM_AllPairsShortestPaths)->Arg(10)->Arg(50)->Arg(200);

// Route assembly as the engine does it: Router::walk over the path span
// with relay lookups from a warm relay table, into a reused context (no
// allocation).
void BM_RouteExpansion(benchmark::State& state) {
  const rfh::World world = rfh::build_paper_world();
  const rfh::DcGraph graph(world.topology.datacenter_count(), world.links);
  const rfh::ShortestPaths paths(graph);
  const rfh::Router router(world.topology, paths, /*partitions=*/1);
  rfh::SimConfig config;
  rfh::ClusterState cluster(world.topology, config);
  const rfh::ServerId holder =
      cluster.ring().partition_owner(rfh::PartitionId{0});
  rfh::Router::RouteCtx ctx;
  std::uint32_t relays = 0;
  const auto visit = [&relays](const rfh::RouteStage& stage) {
    relays ^= stage.relay.value();
    return true;
  };
  for (std::uint32_t r = 0; r < 10; ++r) {  // warm every cell
    (void)router.walk(rfh::PartitionId{0}, rfh::DatacenterId{r}, holder,
                      cluster.live_by_dc(), ctx, visit);
  }
  std::uint32_t requester = 0;
  for (auto _ : state) {
    const rfh::RouteEnd end =
        router.walk(rfh::PartitionId{0}, rfh::DatacenterId{requester},
                    holder, cluster.live_by_dc(), ctx, visit);
    benchmark::DoNotOptimize(end);
    benchmark::DoNotOptimize(relays);
    requester = (requester + 1) % 10;
  }
}
BENCHMARK(BM_RouteExpansion);

void BM_SimulationEpoch(benchmark::State& state) {
  const auto kind = static_cast<rfh::PolicyKind>(state.range(0));
  const rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  auto sim = rfh::make_simulation(scenario, kind);
  sim->run(20);  // warm past the build-out phase
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim->step());
  }
  state.SetLabel(std::string(rfh::policy_name(kind)));
}
BENCHMARK(BM_SimulationEpoch)
    ->Arg(static_cast<int>(rfh::PolicyKind::kRequest))
    ->Arg(static_cast<int>(rfh::PolicyKind::kOwner))
    ->Arg(static_cast<int>(rfh::PolicyKind::kRandom))
    ->Arg(static_cast<int>(rfh::PolicyKind::kRfh));

}  // namespace
