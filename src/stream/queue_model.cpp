#include "stream/queue_model.h"

#include <algorithm>
#include <functional>

#include "common/assert.h"

namespace rfh {

void ServerQueue::reset(std::uint32_t channels) noexcept {
  channels_ = channels;
  busy_.clear();
  pending_.clear();
  pending_head_ = 0;
  max_depth_ = 0;
  dropped_ = 0;
  accepted_ = 0;
}

ServerQueue::Outcome ServerQueue::offer(double t) {
  // Retire channels that finished by t, then waiters whose service has
  // started by t (their start times were fixed when they were admitted).
  const std::greater<> later;
  while (!busy_.empty() && busy_.front() <= t) {
    std::pop_heap(busy_.begin(), busy_.end(), later);
    busy_.pop_back();
  }
  while (pending_head_ < pending_.size() && pending_[pending_head_] <= t) {
    ++pending_head_;
  }
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  }

  Outcome outcome;
  outcome.depth = static_cast<std::uint32_t>(pending_.size() - pending_head_);

  if (channels_ == 0 || outcome.depth >= queue_cap_) {
    // Backpressure: the waiting room is full (or the server has no
    // service channels at all). The query is dropped, not queued.
    ++dropped_;
    return outcome;
  }

  double start = t;
  if (busy_.size() >= channels_) {
    // All channels busy: this arrival starts when the earliest in-flight
    // query completes (FIFO — every earlier waiter already claimed an
    // earlier completion slot).
    start = std::max(t, busy_.front());
    std::pop_heap(busy_.begin(), busy_.end(), later);
    busy_.pop_back();
  }
  RFH_ASSERT(start >= t);
  if (start > t) {
    pending_.push_back(start);
    const auto depth =
        static_cast<std::uint32_t>(pending_.size() - pending_head_);
    max_depth_ = std::max(max_depth_, depth);
  }
  busy_.push_back(start + service_ms_);
  std::push_heap(busy_.begin(), busy_.end(), later);
  ++accepted_;
  outcome.accepted = true;
  outcome.wait_ms = start - t;
  return outcome;
}

}  // namespace rfh
