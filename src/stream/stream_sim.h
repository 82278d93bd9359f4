// The streaming-load layer: disaggregates each epoch's batch traffic
// into timestamped arrivals, queues them at serving servers, and
// measures per-DC waiting/latency distributions with tail percentiles.
//
// Position in the stack (harness/runner.cpp drives it):
//
//   batch engine (Eqs. 2-19)  -- per-epoch flow totals, FlowLog segments
//        |
//   StreamSimulator::process_epoch    [PhaseProfiler: stream_assign]
//        |- ArrivalGenerator  -- timestamps per (epoch, requester DC)
//        |- ServerQueue       -- M/D/c wait * (1 + cv^2) ~= M/G/c wait
//        |- backpressure      -- drops past --queue-cap, counted
//        `- histograms        -- rfh_stream_latency_ms{dc=...}
//
// Contract with batch mode: the stream layer consumes the engine's flow
// segments *after* propagation — it never feeds anything back, so the
// routing/policy phases, Eqs. 2-19 and the differential oracle are
// byte-identical with or without it. Per-epoch arrival totals equal the
// batch totals by construction; only timing and queueing are added.
//
// Backpressure contract: a query arriving at a server whose waiting room
// holds --queue-cap queries is dropped — counted in
// rfh_dropped_backpressure_total and the per-epoch accounting
// (arrivals == served + blocked + dropped, the kStreamAccounting
// invariant), with no latency sample and no retry. Drops are
// observational: they never reduce the batch-side served totals the
// policies see.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event_bus.h"
#include "sim/engine.h"
#include "sim/flow_log.h"
#include "stream/arrival.h"
#include "stream/config.h"
#include "stream/queue_model.h"
#include "telemetry/registry.h"
#include "topology/world.h"

namespace rfh {

class StreamSimulator {
 public:
  /// `registry` may be null (no metric export). `seed` must be the
  /// scenario's sim seed so arrival streams are reproducible.
  StreamSimulator(const World& world, MetricRegistry* registry,
                  const StreamConfig& config, std::uint64_t seed);

  /// The engine-facing segment log; attach with sim.set_flow_log(&log)
  /// before stepping.
  [[nodiscard]] FlowLog& flow_log() noexcept { return flow_log_; }

  /// Consume the flow segments of the epoch `sim` just stepped (pass the
  /// step's EpochReport), queue every arrival, update histograms/metrics
  /// and emit stream events on sim's bus, the returned summary last.
  /// The cumulative per-requester-DC latency distributions live in the
  /// registry's rfh_stream_latency_ms{dc=...} histograms.
  StreamEpochStats process_epoch(Simulation& sim, const EpochReport& report);

 private:
  struct QueuedArrival {
    double t = 0.0;
    std::uint64_t seq = 0;  // allocation order: deterministic tie-break
    double weight = 0.0;
    double route_latency_ms = 0.0;
    DatacenterId requester;
  };

  const World* world_;
  MetricRegistry* registry_;
  StreamConfig config_;
  ArrivalGenerator arrivals_;
  FlowLog flow_log_;

  // Registry handles resolved once in the constructor (same pattern as
  // the engine's TelemetryHandles).
  Counter* arrivals_total_ = nullptr;
  Counter* served_total_ = nullptr;
  Counter* blocked_total_ = nullptr;
  Counter* dropped_total_ = nullptr;
  std::vector<Counter*> dropped_by_dc_;    // by server DC index
  Gauge* queue_depth_ = nullptr;
  std::vector<Gauge*> queue_depth_by_dc_;  // by server DC index
  std::vector<HistogramMetric*> latency_by_dc_;  // by requester DC index

  // Scratch reused across epochs, so a steady epoch allocates nothing
  // here.
  std::vector<std::vector<QueuedArrival>> per_server_;
  std::vector<double> dc_totals_;
  std::vector<std::vector<std::size_t>> by_dc_;  // segment indices per DC
  std::vector<double> timestamps_;
  std::vector<std::uint32_t> dc_depth_;
  ServerQueue queue_;
};

}  // namespace rfh
