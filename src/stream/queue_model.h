// Per-server FIFO queue with c parallel service channels and a bounded
// waiting room.
//
// The simulation is event-free M/D/c: deterministic service times, a
// min-heap of channel completion times, and explicit backpressure — an
// arrival that finds `queue_cap` queries already waiting is dropped (the
// stream layer counts it in rfh_dropped_backpressure_total; it is never
// retried). The caller scales the simulated deterministic-service wait by
// (1 + cv^2) to approximate M/G/c — the same Allen-Cunneen correction
// erlang_mgc_mean_wait (common/erlang.h) applies analytically, since
// W(M/D/c) ~= W(M/M/c)/2 and W(M/G/c) ~= W(M/M/c)(1+cv^2)/2.
//
// Blocking (Erlang-B, Eq. 18) remains the batch engine's job: by the time
// arrivals reach a ServerQueue they have already survived routing and
// capacity absorption, so the queue adds waiting time on top of — never
// instead of — the paper's loss model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rfh {

class ServerQueue {
 public:
  struct Outcome {
    /// False when the arrival was dropped by backpressure.
    bool accepted = false;
    /// Queueing delay before a channel started serving, ms (0 when a
    /// channel was free on arrival). Deterministic-service wait; callers
    /// apply the (1 + cv^2) M/G/c correction.
    double wait_ms = 0.0;
    /// Waiting-room occupancy the arrival observed (before joining).
    std::uint32_t depth = 0;
  };

  ServerQueue(std::uint32_t channels, double service_ms,
              std::uint32_t queue_cap) noexcept
      : channels_(channels), service_ms_(service_ms), queue_cap_(queue_cap) {}

  /// Empty the queue and give it `channels` service channels, keeping the
  /// buffers' capacity, so one ServerQueue can serve server after server
  /// without allocating.
  void reset(std::uint32_t channels) noexcept;

  /// Offer one arrival at time `t` (ms). Calls must be in non-decreasing
  /// t order — the stream layer sorts each server's arrivals first.
  Outcome offer(double t);

  /// Largest waiting-room occupancy observed, *including* the arrival
  /// that joined it — by construction <= queue_cap (arrivals at cap are
  /// dropped), which is exactly the kQueueDepth invariant.
  [[nodiscard]] std::uint32_t max_depth() const noexcept { return max_depth_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
  [[nodiscard]] std::uint32_t channels() const noexcept { return channels_; }

 private:
  std::uint32_t channels_;
  double service_ms_;
  std::uint32_t queue_cap_;
  /// Completion times of in-flight queries (a min-heap under
  /// std::greater, kept with push_heap/pop_heap as std::priority_queue
  /// does).
  std::vector<double> busy_;
  /// Service *start* times of queries still waiting at the current
  /// arrival time, from pending_head_ on; start times are assigned in
  /// FIFO order so the list stays sorted and advancing the head retires
  /// waiters as time advances.
  std::vector<double> pending_;
  std::size_t pending_head_ = 0;
  std::uint32_t max_depth_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t accepted_ = 0;
};

}  // namespace rfh
