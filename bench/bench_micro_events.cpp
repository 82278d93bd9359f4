// Event-emission overhead (google-benchmark): guards the observability
// subsystem's zero-cost-when-disabled claim.
//
//  * BM_SimStep/{off,jsonl,recorder}: a full Simulation::step with no
//    sink, a JSONL sink writing to a discarded stream, and the causal
//    flight recorder (TimelineStore). Acceptance requires
//    instrumentation overhead < 1% when no sink is installed and <= 5%
//    with the recorder attached.
//  * BM_EmitDisabled / BM_EmitTimelineStore: the raw cost of one emit()
//    through an empty bus (the disabled path is a single sinks-empty
//    branch) and through the flight recorder's condense-and-index path.
//
// scripts/obs_overhead.py consumes this bench's --benchmark_format=json
// output and fails CI when a recorder overhead *ratio* regresses >25%
// against bench/results/obs_overhead_baseline.json.
#include <benchmark/benchmark.h>

#include <sstream>

#include "harness/scenario.h"
#include "obs/sinks.h"
#include "obs/timeline.h"
#include "sim/engine.h"

namespace {

enum class SinkMode { kOff, kJsonl, kRecorder };

void run_sim_steps(benchmark::State& state, SinkMode mode) {
  rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  auto sim = rfh::make_simulation(scenario, rfh::PolicyKind::kRfh);

  std::ostringstream discard;
  rfh::JsonlSink jsonl(discard);
  rfh::TimelineStore recorder(scenario.sim.partitions);
  if (mode == SinkMode::kJsonl) sim->events().add_sink(&jsonl);
  if (mode == SinkMode::kRecorder) sim->events().add_sink(&recorder);

  for (auto _ : state) {
    benchmark::DoNotOptimize(sim->step());
    if (discard.tellp() > (1 << 22)) {
      discard.str({});  // keep the discard buffer from growing unboundedly
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SimStep_TracingOff(benchmark::State& state) {
  run_sim_steps(state, SinkMode::kOff);
}
BENCHMARK(BM_SimStep_TracingOff)->Unit(benchmark::kMicrosecond);

void BM_SimStep_JsonlSink(benchmark::State& state) {
  run_sim_steps(state, SinkMode::kJsonl);
}
BENCHMARK(BM_SimStep_JsonlSink)->Unit(benchmark::kMicrosecond);

void BM_SimStep_Recorder(benchmark::State& state) {
  run_sim_steps(state, SinkMode::kRecorder);
}
BENCHMARK(BM_SimStep_Recorder)->Unit(benchmark::kMicrosecond);

// The fully-disabled path: no sink installed, so emit() must reduce to
// the single sinks-empty pointer test. scripts/obs_overhead.py ratios
// the recorder's emit against this one.
void BM_EmitDisabled(benchmark::State& state) {
  rfh::EventBus bus;
  std::uint32_t epoch = 0;
  for (auto _ : state) {
    bus.emit(rfh::ServerFailed{epoch++, rfh::ServerId{3}});
    benchmark::DoNotOptimize(bus);
  }
}
BENCHMARK(BM_EmitDisabled);

// One emit() into the flight recorder: condense to a 64-byte record,
// append to the partition ring, maintain the indexes, maybe feed the
// eviction reservoir.
void BM_EmitTimelineStore(benchmark::State& state) {
  rfh::EventBus bus;
  rfh::TimelineStore recorder(/*partitions=*/64);
  bus.add_sink(&recorder);
  std::uint32_t epoch = 0;
  rfh::ReplicaAdded event{0, rfh::PartitionId{5}, rfh::ServerId{1},
                          rfh::ServerId{9}, 3.25, {}};
  event.why.rule = rfh::DecisionRule::kOverloadHub;
  for (auto _ : state) {
    event.epoch = epoch++;
    bus.emit(event);
    benchmark::DoNotOptimize(bus);
  }
}
BENCHMARK(BM_EmitTimelineStore);

void BM_EventToJson(benchmark::State& state) {
  rfh::ReplicaAdded event{12, rfh::PartitionId{5}, rfh::ServerId{1},
                          rfh::ServerId{9}, 3.25, {}};
  event.why.rule = rfh::DecisionRule::kOverloadHub;
  const rfh::Event variant(event);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfh::event_to_json(variant));
  }
}
BENCHMARK(BM_EventToJson);

}  // namespace
