#include "obs/sinks.h"

#include <cinttypes>
#include <cstdio>

namespace rfh {

namespace {

// --- tiny append-only JSON object writer ----------------------------------
// All keys and enum names in the taxonomy are plain ASCII identifiers, so
// no string escaping is needed anywhere.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(&out) { *out_ += '{'; }
  void close() { *out_ += '}'; }

  void num(const char* key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    emit_key(key);
    *out_ += buf;
  }
  void num(const char* key, std::uint64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    emit_key(key);
    *out_ += buf;
  }
  void str(const char* key, const char* value) {
    emit_key(key);
    *out_ += '"';
    *out_ += value;
    *out_ += '"';
  }
  template <typename Tag>
  void id(const char* key, Id<Tag> value) {
    if (value.valid()) {
      num(key, std::uint64_t{value.value()});
    } else {
      emit_key(key);
      *out_ += "null";
    }
  }
  /// Open a nested object under `key`; returns a writer for it.
  JsonWriter nested(const char* key) {
    emit_key(key);
    return JsonWriter(*out_);
  }

 private:
  explicit JsonWriter(std::string* out) : out_(out) {}
  void emit_key(const char* key) {
    if (!first_) *out_ += ',';
    first_ = false;
    *out_ += '"';
    *out_ += key;
    *out_ += "\":";
  }

  std::string* out_;
  bool first_ = true;
};

void append_explanation(JsonWriter& w, const DecisionExplanation& why) {
  JsonWriter e = w.nested("why");
  e.str("rule", rule_name(why.rule));
  e.str("inequality", rule_inequality(why.rule));
  e.num("observed", why.observed);
  e.num("threshold", why.threshold);
  e.num("q_bar", why.q_bar);
  e.num("beta", why.beta);
  e.num("gamma", why.gamma);
  e.num("delta", why.delta);
  e.num("mu", why.mu);
  e.num("replicas", std::uint64_t{why.replica_count});
  e.num("r_min", std::uint64_t{why.r_min});
  e.close();
}

void append_fields(JsonWriter& w, const ReplicaAdded& e) {
  w.id("partition", e.partition);
  w.id("source", e.source);
  w.id("target", e.target);
  w.num("cost", e.cost);
  append_explanation(w, e.why);
}
void append_fields(JsonWriter& w, const MigrationExecuted& e) {
  w.id("partition", e.partition);
  w.id("from", e.from);
  w.id("to", e.to);
  w.num("cost", e.cost);
  append_explanation(w, e.why);
}
void append_fields(JsonWriter& w, const Suicide& e) {
  w.id("partition", e.partition);
  w.id("server", e.server);
  append_explanation(w, e.why);
}
void append_fields(JsonWriter& w, const ActionDropped& e) {
  w.id("partition", e.partition);
  w.str("action", action_kind_name(e.kind));
  w.str("reason", drop_reason_name(e.reason));
  w.id("target", e.target);
}
void append_fields(JsonWriter& w, const ServerFailed& e) {
  w.id("server", e.server);
}
void append_fields(JsonWriter& w, const ServerRecovered& e) {
  w.id("server", e.server);
}
void append_fields(JsonWriter& w, const PrimaryPromoted& e) {
  w.id("partition", e.partition);
  w.id("new_primary", e.new_primary);
}
void append_fields(JsonWriter& w, const Reseeded& e) {
  w.id("partition", e.partition);
  w.id("new_home", e.new_home);
}
void append_fields(JsonWriter& w, const LinkFailed& e) {
  w.id("a", e.a);
  w.id("b", e.b);
}
void append_fields(JsonWriter& w, const LinkRestored& e) {
  w.id("a", e.a);
  w.id("b", e.b);
}
void append_fields(JsonWriter& w, const FaultInjected& e) {
  w.str("kind", e.kind);
  w.num("servers", std::uint64_t{e.servers});
  w.id("dc", e.dc);
  w.id("link_a", e.link_a);
  w.id("link_b", e.link_b);
  w.num("magnitude", e.magnitude);
}
void append_fields(JsonWriter& w, const PhaseSpan& e) {
  w.str("phase", e.phase);
  w.num("wall_ms", e.wall_ms);
  w.num("start_frac", e.start_frac);
  w.num("dur_frac", e.dur_frac);
}
void append_fields(JsonWriter& w, const EpochCompleted& e) {
  w.num("total_queries", e.total_queries);
  w.num("unserved_queries", e.unserved_queries);
  w.num("replications", std::uint64_t{e.replications});
  w.num("migrations", std::uint64_t{e.migrations});
  w.num("suicides", std::uint64_t{e.suicides});
  w.num("dropped_actions", std::uint64_t{e.dropped_actions});
  w.num("total_replicas", std::uint64_t{e.total_replicas});
  w.num("replication_cost", e.replication_cost);
  w.num("migration_cost", e.migration_cost);
  w.num("mean_path_length", e.mean_path_length);
  JsonWriter by_reason = w.nested("dropped_by_reason");
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    by_reason.num(drop_reason_name(static_cast<DropReason>(r)),
                  std::uint64_t{e.dropped_by_reason[r]});
  }
  by_reason.close();
  w.num("repairs_starved", std::uint64_t{e.repairs_starved});
}
void append_fields(JsonWriter& w, const StreamEpochSummary& e) {
  w.num("arrivals", e.arrivals);
  w.num("served", e.served);
  w.num("blocked", e.blocked);
  w.num("dropped", e.dropped);
  w.num("max_queue_depth", std::uint64_t{e.max_queue_depth});
  w.num("mean_wait_ms", e.mean_wait_ms);
  w.num("p50_ms", e.p50_ms);
  w.num("p99_ms", e.p99_ms);
  w.num("p999_ms", e.p999_ms);
}
void append_fields(JsonWriter& w, const QueueSaturated& e) {
  w.id("server", e.server);
  w.id("dc", e.dc);
  w.num("max_depth", std::uint64_t{e.max_depth});
  w.num("cap", std::uint64_t{e.cap});
  w.num("dropped", e.dropped);
}
void append_fields(JsonWriter& w, const TrafficShift& e) {
  w.id("partition", e.partition);
  w.num("q_bar_before", e.q_bar_before);
  w.num("q_bar_after", e.q_bar_after);
}
void append_fields(JsonWriter& w, const RuleFired& e) {
  w.id("partition", e.partition);
  w.str("rule", rule_name(e.rule));
  w.str("inequality", rule_inequality(e.rule));
  w.num("observed", e.observed);
  w.num("threshold", e.threshold);
  w.num("q_bar", e.q_bar);
}
void append_fields(JsonWriter& w, const SloBreach& e) {
  w.str("objective", e.objective);
  w.num("observed", e.observed);
  w.num("target", e.target);
  w.num("burn_short", e.burn_short);
  w.num("burn_long", e.burn_long);
}
void append_fields(JsonWriter& w, const StatsFrozen& e) {
  w.id("server", e.server);
  w.num("frozen", std::uint64_t{e.frozen ? 1u : 0u});
}
void append_fields(JsonWriter& w, const StripeLost& e) {
  w.id("partition", e.partition);
  w.num("fragments_alive", std::uint64_t{e.fragments_alive});
}
void append_fields(JsonWriter& w, const StripeReconstructed& e) {
  w.id("partition", e.partition);
}

void append_event_json(std::string& out, const Event& event,
                       const TraceMeta& meta) {
  JsonWriter w(out);
  if (meta.id != 0) {
    w.num("id", meta.id);
    if (meta.parent != 0) w.num("parent", meta.parent);
  }
  w.str("type", event_name(event));
  w.num("epoch", std::uint64_t{event_epoch(event)});
  std::visit([&w](const auto& e) { append_fields(w, e); }, event);
  w.close();
}

}  // namespace

std::string event_to_json(const Event& event) {
  std::string out;
  append_event_json(out, event, TraceMeta{});
  return out;
}

// --- JsonlSink ------------------------------------------------------------

void JsonlSink::on_event(const Event& event, const TraceMeta& meta) {
  scratch_.clear();
  append_event_json(scratch_, event, meta);
  scratch_ += '\n';
  out_->write(scratch_.data(),
              static_cast<std::streamsize>(scratch_.size()));
}

// --- ChromeTraceSink ------------------------------------------------------

namespace {

/// Perfetto track (thread id) per event category.
std::uint32_t chrome_tid(const Event& event) {
  struct Visitor {
    std::uint32_t operator()(const EpochCompleted&) const { return 1; }
    std::uint32_t operator()(const ReplicaAdded&) const { return 2; }
    std::uint32_t operator()(const MigrationExecuted&) const { return 2; }
    std::uint32_t operator()(const Suicide&) const { return 2; }
    std::uint32_t operator()(const ActionDropped&) const { return 2; }
    std::uint32_t operator()(const ServerFailed&) const { return 3; }
    std::uint32_t operator()(const ServerRecovered&) const { return 3; }
    std::uint32_t operator()(const PrimaryPromoted&) const { return 3; }
    std::uint32_t operator()(const Reseeded&) const { return 3; }
    std::uint32_t operator()(const LinkFailed&) const { return 3; }
    std::uint32_t operator()(const LinkRestored&) const { return 3; }
    std::uint32_t operator()(const FaultInjected&) const { return 3; }
    std::uint32_t operator()(const PhaseSpan&) const { return 1; }
    std::uint32_t operator()(const StreamEpochSummary&) const { return 1; }
    std::uint32_t operator()(const QueueSaturated&) const { return 3; }
    std::uint32_t operator()(const TrafficShift&) const { return 1; }
    std::uint32_t operator()(const RuleFired&) const { return 2; }
    std::uint32_t operator()(const SloBreach&) const { return 3; }
    std::uint32_t operator()(const StatsFrozen&) const { return 3; }
    std::uint32_t operator()(const StripeLost&) const { return 3; }
    std::uint32_t operator()(const StripeReconstructed&) const { return 3; }
  };
  return std::visit(Visitor{}, event);
}

}  // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream& out,
                                 std::uint64_t epoch_duration_us)
    : out_(&out), epoch_us_(epoch_duration_us == 0 ? 1 : epoch_duration_us) {
  *out_ << "[\n";
  // Metadata: name the process and the three tracks.
  write_record(R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
               R"("args":{"name":"rfh-sim"}})");
  write_record(R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
               R"("args":{"name":"epochs"}})");
  write_record(R"({"name":"thread_name","ph":"M","pid":1,"tid":2,)"
               R"("args":{"name":"replica actions"}})");
  write_record(R"({"name":"thread_name","ph":"M","pid":1,"tid":3,)"
               R"("args":{"name":"failures"}})");
}

void ChromeTraceSink::write_record(const std::string& json) {
  if (!first_record_) *out_ << ",\n";
  first_record_ = false;
  *out_ << json;
}

void ChromeTraceSink::on_event(const Event& event,
                               const TraceMeta& /*meta*/) {
  if (closed_) return;
  const std::uint64_t ts = std::uint64_t{event_epoch(event)} * epoch_us_;

  scratch_.clear();
  {
    const auto* span = std::get_if<PhaseSpan>(&event);
    JsonWriter w(scratch_);
    w.str("name", span != nullptr ? span->phase : event_name(event));
    w.str("cat", "rfh");
    if (std::holds_alternative<EpochCompleted>(event)) {
      // The epoch itself is a duration slice on the epochs track.
      w.str("ph", "X");
      w.num("ts", ts);
      w.num("dur", epoch_us_);
    } else if (span != nullptr) {
      // Profiler phases nest inside the epoch slice: same track, start
      // and duration scaled from wall-time fractions onto the simulated
      // epoch span (Perfetto nests contained slices automatically).
      w.str("ph", "X");
      w.num("ts", ts + static_cast<std::uint64_t>(
                           span->start_frac *
                           static_cast<double>(epoch_us_)));
      const auto dur = static_cast<std::uint64_t>(
          span->dur_frac * static_cast<double>(epoch_us_));
      w.num("dur", dur > 0 ? dur : 1);
    } else {
      w.str("ph", "i");
      w.str("s", "t");  // thread-scoped instant
      w.num("ts", ts);
    }
    w.num("pid", std::uint64_t{1});
    w.num("tid", std::uint64_t{chrome_tid(event)});
    JsonWriter args = w.nested("args");
    std::visit([&args](const auto& e) { append_fields(args, e); }, event);
    args.close();
    w.close();
  }
  write_record(scratch_);

  // Counter tracks make the replica census and drop pressure visible as
  // graphs in the Perfetto timeline.
  if (const auto* done = std::get_if<EpochCompleted>(&event)) {
    scratch_.clear();
    {
      JsonWriter w(scratch_);
      w.str("name", "replicas");
      w.str("ph", "C");
      w.num("ts", ts);
      w.num("pid", std::uint64_t{1});
      JsonWriter args = w.nested("args");
      args.num("total", std::uint64_t{done->total_replicas});
      args.close();
      w.close();
    }
    write_record(scratch_);
    scratch_.clear();
    {
      JsonWriter w(scratch_);
      w.str("name", "dropped_actions");
      w.str("ph", "C");
      w.num("ts", ts);
      w.num("pid", std::uint64_t{1});
      JsonWriter args = w.nested("args");
      args.num("dropped", std::uint64_t{done->dropped_actions});
      args.close();
      w.close();
    }
    write_record(scratch_);
  }
}

void ChromeTraceSink::flush() {
  if (closed_) return;
  closed_ = true;
  *out_ << "\n]\n";
  out_->flush();
}

// --- FilterSink -----------------------------------------------------------

std::vector<std::string> parse_event_filter(std::string_view spec) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view token = spec.substr(start, end - start);
    // Trim surrounding spaces.
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (!token.empty()) names.emplace_back(token);
    start = end + 1;
  }
  return names;
}

FilterSink::FilterSink(EventSink& inner, std::string_view spec)
    : inner_(&inner), allowed_(parse_event_filter(spec)) {}

bool FilterSink::passes(std::string_view name) const noexcept {
  if (allowed_.empty()) return true;
  for (const std::string& allowed : allowed_) {
    if (name == allowed) return true;
  }
  return false;
}

void FilterSink::on_event(const Event& event, const TraceMeta& meta) {
  if (passes(event_name(event))) inner_->on_event(event, meta);
}

}  // namespace rfh
