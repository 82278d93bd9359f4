// Trace capture and replay: record the demand stream of a stochastic
// run, serialize it to CSV, replay it through a fresh simulation, and
// verify the replayed run is identical. This is the workflow for feeding
// a production query log (converted to the same CSV) into the simulator.
//
//   $ ./trace_replay
#include <cstdio>
#include <sstream>

#include "core/rfh_policy.h"
#include "harness/scenario.h"
#include "workload/trace.h"

int main() {
  const rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  const rfh::Epoch epochs = 60;

  // Run 1: stochastic workload, recorded.
  rfh::World world1 = rfh::make_world(scenario);
  auto recording = std::make_unique<rfh::RecordingWorkload>(
      rfh::make_workload(scenario, world1));
  auto* recorder = recording.get();
  rfh::Simulation sim1(std::move(world1), scenario.sim, std::move(recording),
                       std::make_unique<rfh::RfhPolicy>());
  for (rfh::Epoch e = 0; e < epochs; ++e) sim1.step();

  // Serialize the captured trace.
  std::stringstream csv;
  rfh::write_trace_csv(csv, recorder->recorded());
  const std::string text = csv.str();
  std::printf("captured %zu epochs of demand (%zu bytes of CSV)\n",
              recorder->recorded().size(), text.size());

  // Run 2: replay the CSV through a fresh simulation.
  std::stringstream csv_in(text);
  rfh::World world2 = rfh::make_world(scenario);
  rfh::Simulation sim2(
      std::move(world2), scenario.sim,
      std::make_unique<rfh::TraceWorkload>(rfh::TraceWorkload::from_csv(csv_in)),
      std::make_unique<rfh::RfhPolicy>());
  for (rfh::Epoch e = 0; e < epochs; ++e) sim2.step();

  const bool identical =
      sim1.cluster().total_replicas() == sim2.cluster().total_replicas() &&
      sim1.cumulative_replications() == sim2.cumulative_replications() &&
      sim1.cumulative_migrations() == sim2.cumulative_migrations();
  std::printf("replay after %u epochs: %u vs %u replicas, %u vs %u "
              "replications -> %s\n",
              epochs, sim1.cluster().total_replicas(),
              sim2.cluster().total_replicas(),
              sim1.cumulative_replications(), sim2.cumulative_replications(),
              identical ? "identical" : "DIVERGED");
  return identical ? 0 : 1;
}
