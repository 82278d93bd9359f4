// Pluggable trace consumers for the EventBus. The causal flight recorder
// (obs/timeline.h) is the bounded in-memory reader; these are the rest.
//
//  * CaptureSink    — every event in memory, unbounded; the differential
//    oracle and tests.
//  * JsonlSink      — one self-describing JSON object per line; the
//    machine-readable archive format (jq / pandas friendly).
//  * ChromeTraceSink— Chrome trace_event JSON array loadable in Perfetto /
//    about://tracing; epochs become duration slices, point events become
//    instants, and the replica census becomes a counter track.
//  * FilterSink     — decorator passing only a named subset of event
//    types through to an inner sink (the CLI's --trace-filter).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event_bus.h"

namespace rfh {

/// Keeps every dispatched event in memory, in arrival order. The
/// differential oracle slices it per epoch; tests count and inspect it.
class CaptureSink final : public EventSink {
 public:
  void on_event(const Event& event, const TraceMeta& /*meta*/) override {
    events.push_back(event);
  }
  std::vector<Event> events;
};

/// One JSON object per line: {"type":...,"epoch":...,<event fields>}.
/// When dispatched through an EventBus the row leads with the causal
/// envelope — {"id":N,"parent":M,...} — so a JSONL trace round-trips the
/// cause chains.
class JsonlSink final : public EventSink {
 public:
  /// The stream must outlive the sink; the sink never closes it.
  explicit JsonlSink(std::ostream& out) : out_(&out) {}

  void on_event(const Event& event, const TraceMeta& meta) override;
  void flush() override { out_->flush(); }

 private:
  std::ostream* out_;
  std::string scratch_;  // reused per event to avoid reallocating
};

/// Chrome trace_event "JSON array format". Each epoch is a complete ("X")
/// slice on the epochs track, point events are instants ("i") on a track
/// per category, and EpochCompleted additionally feeds counter ("C")
/// tracks for replicas and dropped actions. Load the file directly in
/// https://ui.perfetto.dev or about://tracing.
class ChromeTraceSink final : public EventSink {
 public:
  /// `epoch_duration_us` maps one simulated epoch onto the trace
  /// timeline; Table I's 10-second epoch is the default.
  explicit ChromeTraceSink(std::ostream& out,
                           std::uint64_t epoch_duration_us = 10'000'000);

  void on_event(const Event& event, const TraceMeta& meta) override;
  /// Emits the closing bracket (idempotent).
  void flush() override;
  ~ChromeTraceSink() override { flush(); }

 private:
  void write_record(const std::string& json);

  std::ostream* out_;
  std::uint64_t epoch_us_;
  bool first_record_ = true;
  bool closed_ = false;
  std::string scratch_;
};

/// The event type names of a comma-separated filter spec
/// ("ReplicaAdded, ActionDropped"), spaces trimmed and empty tokens
/// skipped.
[[nodiscard]] std::vector<std::string> parse_event_filter(
    std::string_view spec);

/// Forwards only events whose type name is in the allow-list, with their
/// causal envelope.
class FilterSink final : public EventSink {
 public:
  /// `spec` as parse_event_filter reads it (exact names). An empty spec
  /// passes everything through.
  FilterSink(EventSink& inner, std::string_view spec);

  void on_event(const Event& event, const TraceMeta& meta) override;
  void flush() override { inner_->flush(); }

  [[nodiscard]] bool passes(std::string_view name) const noexcept;

 private:
  EventSink* inner_;
  std::vector<std::string> allowed_;  // empty => pass-through
};

/// Serialize one event as a single-line JSON object (the JsonlSink row
/// format); exposed for tests and ad-hoc tooling.
[[nodiscard]] std::string event_to_json(const Event& event);

}  // namespace rfh
