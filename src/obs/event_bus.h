// A minimal publish/subscribe bus for simulator events.
//
// Zero-cost when disabled: with no sinks installed, emit() compiles to a
// vector-emptiness check and returns before the Event variant is even
// constructed (the arguments are built lazily by the caller through the
// RFH_OBS_EMIT macro or a guarded `if (bus.enabled())`). With sinks
// installed, every event is dispatched synchronously, in installation
// order — the bus itself never buffers, so a sink sees events exactly
// when they happen and a crashing run still has its trace up to the
// crash point.
//
// Causal envelope: every dispatched event is assigned a sequential,
// bus-local `cause id` (1-based; 0 means "no event was recorded"), and
// carries the id of the event that caused it — explicitly via
// emit_caused(), or implicitly from the ambient CauseScope the producer
// established (the chaos controller wraps each injection's side effects
// in one). Every sink receives the (id, parent) pair with the event.
// Because a bus belongs to one single-threaded Simulation, ids depend
// only on the emission sequence — byte-identical across --jobs values.
//
// Threading: a bus belongs to one Simulation, which is single-threaded;
// the comparative runner gives each policy its own Simulation (and bus),
// so no locking is needed anywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/events.h"

namespace rfh {

/// The causal envelope of one dispatched event. `id` is 1-based and
/// strictly increasing per bus; `parent` is the id of the causing event,
/// or 0 for a root (no known cause).
struct TraceMeta {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// Interface every trace consumer implements.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// One dispatched event with its causal envelope. Sinks that record
  /// causality (JsonlSink, TimelineStore) keep `meta`; others ignore it.
  virtual void on_event(const Event& event, const TraceMeta& meta) = 0;
  /// Called when the producer is done (end of run / bus teardown). Sinks
  /// writing framed formats (e.g. the Chrome JSON array) finalize here;
  /// flush() must be idempotent.
  virtual void flush() {}
};

class EventBus {
 public:
  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;
  EventBus(EventBus&&) = default;
  EventBus& operator=(EventBus&&) = default;
  ~EventBus() {
    for (const std::unique_ptr<EventSink>& sink : owned_) sink->flush();
  }

  /// Install a non-owning sink (caller keeps it alive past the last emit).
  void add_sink(EventSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  /// Install an owning sink (destroyed with the bus, after a final flush).
  void add_sink(std::unique_ptr<EventSink> sink) {
    if (sink == nullptr) return;
    sinks_.push_back(sink.get());
    owned_.push_back(std::move(sink));
  }

  /// True when at least one sink is installed. Instrumentation sites with
  /// non-trivial event construction should guard on this.
  [[nodiscard]] bool enabled() const noexcept { return !sinks_.empty(); }

  [[nodiscard]] std::size_t sink_count() const noexcept {
    return sinks_.size();
  }

  /// Publish one event to every sink, parented to the current CauseScope
  /// (or root when none is active). Accepts any Event alternative by
  /// value; the variant is only materialized when a sink is listening.
  /// Returns the assigned cause id, 0 when no sink is installed.
  template <typename E>
  std::uint64_t emit(E&& event) {
    if (sinks_.empty()) return 0;
    return dispatch(Event(std::forward<E>(event)), scope_parent_);
  }

  /// Publish with an explicit parent id (0 = root). Used by producers
  /// that track finer-grained causes than a scope can express — e.g. the
  /// engine parenting each action outcome to its RuleFired event.
  template <typename E>
  std::uint64_t emit_caused(std::uint64_t parent, E&& event) {
    if (sinks_.empty()) return 0;
    return dispatch(Event(std::forward<E>(event)), parent);
  }

  /// Id assigned to the most recent dispatch (0 before the first).
  [[nodiscard]] std::uint64_t last_id() const noexcept { return seq_; }

  /// The most recent *root disturbance* — the injection/perturbation id
  /// that statistical echoes (TrafficShift, SloBreach) should chain to
  /// when no per-partition cause is tighter. Set by the chaos controller
  /// and the engine's ad-hoc failure-injection entry points; persists
  /// until the next disturbance.
  [[nodiscard]] std::uint64_t ambient_cause() const noexcept {
    return ambient_;
  }
  void set_ambient_cause(std::uint64_t id) noexcept { ambient_ = id; }

  /// Flush every sink (idempotent). Call before tearing down non-owning
  /// sinks; the destructor only flushes sinks the bus owns, because a
  /// non-owning sink declared after the bus is already gone by then.
  void close() {
    for (EventSink* sink : sinks_) sink->flush();
  }

 private:
  friend class CauseScope;

  std::uint64_t dispatch(const Event& event, std::uint64_t parent) {
    const TraceMeta meta{++seq_, parent};
    for (EventSink* sink : sinks_) sink->on_event(event, meta);
    return meta.id;
  }

  std::vector<EventSink*> sinks_;
  std::vector<std::unique_ptr<EventSink>> owned_;
  std::uint64_t seq_ = 0;
  std::uint64_t scope_parent_ = 0;
  std::uint64_t ambient_ = 0;
};

/// RAII parent scope: every emit() (not emit_caused) inside the scope is
/// parented to `parent`. Scopes nest; the previous parent is restored on
/// destruction. A parent of 0 re-establishes "root" inside an outer
/// scope.
class CauseScope {
 public:
  CauseScope(EventBus& bus, std::uint64_t parent) noexcept
      : bus_(&bus), saved_(bus.scope_parent_) {
    bus.scope_parent_ = parent;
  }
  CauseScope(const CauseScope&) = delete;
  CauseScope& operator=(const CauseScope&) = delete;
  ~CauseScope() { bus_->scope_parent_ = saved_; }

 private:
  EventBus* bus_;
  std::uint64_t saved_;
};

}  // namespace rfh
