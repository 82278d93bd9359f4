// Per-flow slice log: one record per absorption decision.
//
// The engine's propagate() (engine.cpp) absorbs each (partition,
// requester) flow into replicas along its route as aggregate per-epoch
// query counts. Every decision it makes about a slice of a flow is one
// FlowSegment: the flow was unavailable (lost primary, or an EC stripe
// below k), a copy absorbed part of it, or a residual blocked beyond
// every copy. The engine always records these slices, in the exact
// deterministic order propagate() makes the decisions, and derives the
// epoch's unserved tally, path-length samples and latency histogram
// from them.
//
// The stream subsystem (src/stream/) needs to know *where* each slice
// landed — which server, in which datacenter, with what one-way routing
// latency — so it can disaggregate the batch into timestamped arrivals
// and queue them at the serving server. When a FlowLog is attached
// (Simulation::set_flow_log) the engine copies the epoch's slices into
// it. The copy is purely observational: it never touches simulation
// state or any RNG stream, so attaching a log cannot change a single
// byte of a run (locked down by tests/stream_test.cpp and
// tests/traffic_propagation_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"

namespace rfh {

/// One absorption (or rejection) decision for a slice of a query flow.
struct FlowSegment {
  PartitionId partition;
  DatacenterId requester;
  /// Serving server; invalid() means the slice was not served (blocked
  /// residual or unavailable flow) and counts toward unserved(partition).
  ServerId server;
  /// Datacenter of `server`, or the requester DC for unserved slices.
  DatacenterId dc;
  /// Path length in hops: the absorbing stage's hops_at_entry, the whole
  /// route's for a blocked residual, 0 for an unavailable flow.
  std::uint32_t hops = 0;
  double queries = 0.0;
  /// One-way routing latency for this slice, in ms. Blocked residuals
  /// carry route latency + kBlockedPenaltyMs. A slice with latency >= 0
  /// is one path-length and latency sample; negative means "no sample":
  /// unavailable flows, counted as unserved without sampling latency.
  double latency_ms = 0.0;
};

/// Append-only copy of the engine's slices, cleared at the start of each
/// propagate() so it always holds exactly the current epoch's segments.
class FlowLog {
 public:
  void clear() noexcept { segments_.clear(); }
  void add(const FlowSegment& segment) { segments_.push_back(segment); }
  [[nodiscard]] const std::vector<FlowSegment>& segments() const noexcept {
    return segments_;
  }

 private:
  std::vector<FlowSegment> segments_;
};

}  // namespace rfh
