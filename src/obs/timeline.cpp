#include "obs/timeline.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "ring/hash.h"

namespace rfh {

namespace {

constexpr std::size_t kRecordBytes = sizeof(TimelineRecord);

/// Finalizer from the splitmix64 generator — a cheap, high-quality
/// 64-bit mix used as the reservoir's sampling key. Keying on the cause
/// id makes the bottom-k keep-set a pure function of *which* records
/// were evicted, independent of eviction order or thread count.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::uint16_t to_dc16(DatacenterId dc) noexcept {
  if (!dc.valid() || dc.value() >= TimelineRecord::kNoDc) {
    return TimelineRecord::kNoDc;
  }
  return static_cast<std::uint16_t>(dc.value());
}

struct CondenseVisitor {
  TimelineRecord& rec;

  // Per-epoch summaries are never recorded (see TimelineStore).
  void operator()(const QueryRoutedSummary&) const {}
  void operator()(const EpochCompleted&) const {}
  void operator()(const PhaseSpan&) const {}
  void operator()(const ReplicaAdded& e) const {
    rec.partition = e.partition.value();
    rec.server = e.target.value();
    rec.aux = e.source.value();
    rec.a = e.why.observed;
    rec.b = e.why.threshold;
    rec.code = static_cast<std::uint8_t>(e.why.rule);
  }
  void operator()(const MigrationExecuted& e) const {
    rec.partition = e.partition.value();
    rec.server = e.to.value();
    rec.aux = e.from.value();
    rec.a = e.why.observed;
    rec.b = e.why.threshold;
    rec.code = static_cast<std::uint8_t>(e.why.rule);
  }
  void operator()(const Suicide& e) const {
    rec.partition = e.partition.value();
    rec.server = e.server.value();
    rec.a = e.why.observed;
    rec.b = e.why.threshold;
    rec.code = static_cast<std::uint8_t>(e.why.rule);
  }
  void operator()(const ActionDropped& e) const {
    rec.partition = e.partition.value();
    rec.server = e.target.value();
    rec.code = static_cast<std::uint8_t>(e.reason);
    rec.label = action_kind_name(e.kind);
  }
  void operator()(const ServerFailed& e) const { rec.server = e.server.value(); }
  void operator()(const ServerRecovered& e) const {
    rec.server = e.server.value();
  }
  void operator()(const PrimaryPromoted& e) const {
    rec.partition = e.partition.value();
    rec.server = e.new_primary.value();
  }
  void operator()(const Reseeded& e) const {
    rec.partition = e.partition.value();
    rec.server = e.new_home.value();
  }
  void operator()(const LinkFailed& e) const {
    rec.dc = to_dc16(e.a);
    rec.aux = e.b.value();
  }
  void operator()(const LinkRestored& e) const {
    rec.dc = to_dc16(e.a);
    rec.aux = e.b.value();
  }
  void operator()(const FaultInjected& e) const {
    rec.label = e.kind;
    rec.dc = to_dc16(e.dc);
    rec.server = e.link_a.value();  // link endpoints, when applicable
    rec.aux = e.link_b.value();
    rec.a = static_cast<double>(e.servers);
    rec.b = e.magnitude;
  }
  void operator()(const StreamEpochSummary& e) const {
    rec.a = e.arrivals;
    rec.b = e.dropped;
  }
  void operator()(const QueueSaturated& e) const {
    rec.server = e.server.value();
    rec.dc = to_dc16(e.dc);
    rec.aux = e.cap;
    rec.a = e.dropped;
    rec.b = static_cast<double>(e.max_depth);
  }
  void operator()(const TrafficShift& e) const {
    rec.partition = e.partition.value();
    rec.a = e.q_bar_before;
    rec.b = e.q_bar_after;
  }
  void operator()(const RuleFired& e) const {
    rec.partition = e.partition.value();
    rec.code = static_cast<std::uint8_t>(e.rule);
    rec.a = e.observed;
    rec.b = e.threshold;
  }
  void operator()(const SloBreach& e) const {
    rec.label = e.objective;
    rec.a = e.observed;
    rec.b = e.target;
  }
  void operator()(const StatsFrozen& e) const {
    rec.server = e.server.value();
    rec.a = e.frozen ? 1.0 : 0.0;
  }
  void operator()(const StripeLost& e) const {
    rec.partition = e.partition.value();
    rec.a = static_cast<double>(e.fragments_alive);
  }
  void operator()(const StripeReconstructed& e) const {
    rec.partition = e.partition.value();
  }
};

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

TimelineRecord make_timeline_record(const Event& event, const TraceMeta& meta) {
  TimelineRecord rec;
  rec.id = meta.id;
  rec.parent = meta.parent;
  rec.epoch = event_epoch(event);
  rec.type = static_cast<std::uint8_t>(event.index());
  std::visit(CondenseVisitor{rec}, event);
  return rec;
}

// ---------------------------------------------------------------------------
// TimelineStore
// ---------------------------------------------------------------------------

TimelineStore::TimelineStore(std::uint32_t partitions,
                             std::size_t byte_budget) {
  // Budget split: a quarter for the reservoir, an eighth for the global
  // ring, the rest spread over the per-partition rings (clamped so tiny
  // fleets still get history and huge ones stay bounded).
  reservoir_cap_ = std::max<std::size_t>(64, byte_budget / 4 / kRecordBytes);
  global_cap_ = std::clamp<std::size_t>(byte_budget / 8 / kRecordBytes,
                                        std::size_t{64}, std::size_t{65536});
  const std::size_t fixed = (reservoir_cap_ + global_cap_) * kRecordBytes;
  const std::size_t ring_bytes = byte_budget > fixed ? byte_budget - fixed : 0;
  const std::size_t per_partition =
      partitions > 0 ? ring_bytes / partitions / kRecordBytes : 0;
  cap_ = std::clamp(per_partition, kMinRing, kMaxRing);
  rings_.resize(partitions);
}

void TimelineStore::on_event(const Event& event, const TraceMeta& meta) {
  const std::size_t type = event.index();
  if (type == event_type_index<QueryRoutedSummary>() ||
      type == event_type_index<EpochCompleted>() ||
      type == event_type_index<PhaseSpan>()) {
    return;
  }
  const TimelineRecord rec = make_timeline_record(event, meta);
  ++total_;
  if (rec.partition != TimelineRecord::kNoEntity &&
      rec.partition < rings_.size()) {
    insert(rings_[rec.partition], cap_, rec);
  } else {
    insert(global_, global_cap_, rec);
  }
}

void TimelineStore::insert(Ring& ring, std::size_t cap,
                           const TimelineRecord& rec) {
  if (cap == 0) return;
  if (ring.buf.size() < cap) {
    ring.buf.push_back(rec);
    return;
  }
  offer_reservoir(ring.buf[ring.head]);
  ring.buf[ring.head] = rec;
  ring.head = ring.head + 1 == cap ? 0 : ring.head + 1;  // no div on hot path
}

void TimelineStore::offer_reservoir(const TimelineRecord& rec) {
  ++evicted_;
  const std::uint64_t key = splitmix64(rec.id);
  const auto by_key = [](const auto& lhs, const auto& rhs) {
    return lhs.first < rhs.first;
  };
  if (reservoir_.size() < reservoir_cap_) {
    reservoir_.emplace_back(key, rec);
    std::push_heap(reservoir_.begin(), reservoir_.end(), by_key);
    return;
  }
  if (key >= reservoir_.front().first) return;  // not in the bottom-k
  std::pop_heap(reservoir_.begin(), reservoir_.end(), by_key);
  reservoir_.back() = {key, rec};
  std::push_heap(reservoir_.begin(), reservoir_.end(), by_key);
}

std::size_t TimelineStore::approx_bytes() const noexcept {
  std::size_t records = global_.buf.size() + reservoir_.size();
  for (const Ring& ring : rings_) records += ring.buf.size();
  return records * kRecordBytes;
}

void TimelineStore::append_ring(std::vector<TimelineRecord>& out,
                                const Ring& ring) const {
  // Oldest first: [head, end) then [0, head).
  for (std::size_t i = ring.head; i < ring.buf.size(); ++i) {
    out.push_back(ring.buf[i]);
  }
  for (std::size_t i = 0; i < ring.head; ++i) out.push_back(ring.buf[i]);
}

std::vector<TimelineRecord> TimelineStore::snapshot() const {
  std::vector<TimelineRecord> out;
  out.reserve(approx_bytes() / kRecordBytes);
  for (const Ring& ring : rings_) append_ring(out, ring);
  append_ring(out, global_);
  // Reservoir in deterministic (key, id) order before the merge sort.
  std::vector<std::pair<std::uint64_t, TimelineRecord>> sampled = reservoir_;
  std::sort(sampled.begin(), sampled.end(),
            [](const auto& lhs, const auto& rhs) {
              if (lhs.first != rhs.first) return lhs.first < rhs.first;
              return lhs.second.id < rhs.second.id;
            });
  for (const auto& [key, rec] : sampled) out.push_back(rec);
  // Cause ids are assigned in emission order, so sorting by id restores
  // chronology.
  std::stable_sort(out.begin(), out.end(),
                   [](const TimelineRecord& lhs, const TimelineRecord& rhs) {
                     return lhs.id < rhs.id;
                   });
  return out;
}

std::uint64_t TimelineStore::digest() const {
  std::uint64_t hash = kFnvOffset;
  char buf[256];
  for (const TimelineRecord& rec : snapshot()) {
    std::snprintf(buf, sizeof buf,
                  "%llu|%llu|%s|%.17g|%.17g|%u|%u|%u|%u|%u|%u|%u\n",
                  static_cast<unsigned long long>(rec.id),
                  static_cast<unsigned long long>(rec.parent),
                  rec.label != nullptr ? rec.label : "", rec.a, rec.b,
                  rec.epoch, rec.partition, rec.server, rec.aux,
                  static_cast<unsigned>(rec.dc),
                  static_cast<unsigned>(rec.type),
                  static_cast<unsigned>(rec.code));
    hash = fnv1a(hash, buf);
  }
  return hash;
}

void TimelineStore::dump_jsonl(std::ostream& out) const {
  char buf[512];
  for (const TimelineRecord& rec : snapshot()) {
    std::string line = format(
        "{\"id\":%llu,\"parent\":%llu,\"type\":\"%s\",\"epoch\":%u",
        static_cast<unsigned long long>(rec.id),
        static_cast<unsigned long long>(rec.parent),
        event_index_name(rec.type), rec.epoch);
    if (rec.partition != TimelineRecord::kNoEntity) {
      line += format(",\"partition\":%u", rec.partition);
    }
    if (rec.server != TimelineRecord::kNoEntity) {
      line += format(",\"server\":%u", rec.server);
    }
    if (rec.aux != TimelineRecord::kNoEntity) {
      line += format(",\"aux\":%u", rec.aux);
    }
    if (rec.dc != TimelineRecord::kNoDc) {
      line += format(",\"dc\":%u", static_cast<unsigned>(rec.dc));
    }
    if (rec.label != nullptr && rec.label[0] != '\0') {
      line += format(",\"label\":\"%s\"", rec.label);
    }
    if (rec.code != 0) line += format(",\"code\":%u",
                                      static_cast<unsigned>(rec.code));
    std::snprintf(buf, sizeof buf, ",\"a\":%.17g,\"b\":%.17g}", rec.a, rec.b);
    line += buf;
    out << line << '\n';
  }
}

// ---------------------------------------------------------------------------
// TimelineQuery
// ---------------------------------------------------------------------------

TimelineQuery::TimelineQuery(const TimelineStore& store)
    : records_(store.snapshot()) {
  build();
}

TimelineQuery::TimelineQuery(std::vector<TimelineRecord> records)
    : records_(std::move(records)) {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const TimelineRecord& lhs, const TimelineRecord& rhs) {
                     return lhs.id < rhs.id;
                   });
  build();
}

void TimelineQuery::build() {
  for (const TimelineRecord& rec : records_) {
    if (rec.partition != TimelineRecord::kNoEntity) {
      partitions_ = std::max(partitions_, rec.partition + 1);
    }
  }
  // CSR: count per partition, prefix-sum, fill (stable, so per-partition
  // lists stay in id order).
  partition_offsets_.assign(partitions_ + 1, 0);
  for (const TimelineRecord& rec : records_) {
    if (rec.partition != TimelineRecord::kNoEntity) {
      ++partition_offsets_[rec.partition + 1];
    }
  }
  for (std::size_t p = 1; p < partition_offsets_.size(); ++p) {
    partition_offsets_[p] += partition_offsets_[p - 1];
  }
  by_partition_index_.resize(partition_offsets_.back());
  std::vector<std::uint32_t> cursor(partition_offsets_.begin(),
                                    partition_offsets_.end() - 1);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const TimelineRecord& rec = records_[i];
    if (rec.partition != TimelineRecord::kNoEntity) {
      by_partition_index_[cursor[rec.partition]++] =
          static_cast<std::uint32_t>(i);
    }
  }
}

const TimelineRecord* TimelineQuery::find(std::uint64_t id) const {
  if (id == 0) return nullptr;
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), id,
      [](const TimelineRecord& rec, std::uint64_t key) {
        return rec.id < key;
      });
  if (it == records_.end() || it->id != id) return nullptr;
  return &*it;
}

std::vector<TimelineRecord> TimelineQuery::partition_history(
    PartitionId p, Epoch until) const {
  std::vector<TimelineRecord> out;
  if (!p.valid() || p.value() >= partitions_) return out;
  const std::uint32_t begin = partition_offsets_[p.value()];
  const std::uint32_t end = partition_offsets_[p.value() + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    const TimelineRecord& rec = records_[by_partition_index_[i]];
    if (rec.epoch <= until) out.push_back(rec);
  }
  return out;
}

std::vector<TimelineRecord> TimelineQuery::at_epoch(Epoch e) const {
  std::vector<TimelineRecord> out;
  for (const TimelineRecord& rec : records_) {
    if (rec.epoch == e) out.push_back(rec);
  }
  return out;
}

std::vector<TimelineRecord> TimelineQuery::dc_records(DatacenterId dc) const {
  std::vector<TimelineRecord> out;
  if (!dc.valid()) return out;
  for (const TimelineRecord& rec : records_) {
    const bool as_dc = rec.dc != TimelineRecord::kNoDc && rec.dc == dc.value();
    // Link records store endpoints in (dc, aux) / (server, aux).
    const bool as_link =
        (rec.type == event_type_index<LinkFailed>() ||
         rec.type == event_type_index<LinkRestored>()) &&
        rec.aux == dc.value();
    if (as_dc || as_link) out.push_back(rec);
  }
  return out;
}

std::vector<TimelineRecord> TimelineQuery::chain(std::uint64_t id) const {
  std::vector<TimelineRecord> reversed;
  // Parents always have smaller ids, so chains cannot cycle; the hop cap
  // only guards against corrupted input.
  constexpr std::size_t kMaxHops = 1024;
  const TimelineRecord* rec = find(id);
  while (rec != nullptr && reversed.size() < kMaxHops) {
    reversed.push_back(*rec);
    rec = rec->parent != 0 ? find(rec->parent) : nullptr;
  }
  return {reversed.rbegin(), reversed.rend()};
}

bool TimelineQuery::chain_truncated(std::uint64_t id) const {
  const std::vector<TimelineRecord> links = chain(id);
  return !links.empty() && links.front().parent != 0;
}

std::vector<TimelineRecord> TimelineQuery::why(PartitionId p, Epoch at) const {
  const std::vector<TimelineRecord> history = partition_history(p, at);
  if (history.empty()) return {};
  const auto is_outcome = [](const TimelineRecord& rec) {
    return rec.type == event_type_index<ReplicaAdded>() ||
           rec.type == event_type_index<MigrationExecuted>() ||
           rec.type == event_type_index<Suicide>() ||
           rec.type == event_type_index<ActionDropped>() ||
           rec.type == event_type_index<PrimaryPromoted>() ||
           rec.type == event_type_index<Reseeded>();
  };
  const TimelineRecord* pick = nullptr;
  for (const TimelineRecord& rec : history) {
    if (is_outcome(rec)) pick = &rec;  // latest outcome wins
  }
  if (pick == nullptr) pick = &history.back();
  return chain(pick->id);
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

namespace {

std::string rule_suffix(const TimelineRecord& rec) {
  const auto rule = static_cast<DecisionRule>(rec.code);
  if (rule == DecisionRule::kNone) return "";
  return format(" because %s (%s): %.3g vs %.3g", rule_name(rule),
                rule_inequality(rule), rec.a, rec.b);
}

std::string server_or_dash(std::uint32_t server) {
  return server != TimelineRecord::kNoEntity ? format("%u", server) : "-";
}

}  // namespace

std::string describe_record(const TimelineRecord& rec) {
  const std::size_t t = rec.type;
  if (t == event_type_index<ServerFailed>()) {
    return format("server %u failed", rec.server);
  }
  if (t == event_type_index<ServerRecovered>()) {
    return format("server %u recovered", rec.server);
  }
  if (t == event_type_index<ReplicaAdded>()) {
    return format("partition %u replicated: server %u -> server %u",
                  rec.partition, rec.aux, rec.server) +
           rule_suffix(rec);
  }
  if (t == event_type_index<MigrationExecuted>()) {
    return format("partition %u migrated: server %u -> server %u",
                  rec.partition, rec.aux, rec.server) +
           rule_suffix(rec);
  }
  if (t == event_type_index<Suicide>()) {
    return format("partition %u copy on server %u suicided", rec.partition,
                  rec.server) +
           rule_suffix(rec);
  }
  if (t == event_type_index<ActionDropped>()) {
    return format("partition %u %s dropped (%s, target server %s)",
                  rec.partition, rec.label != nullptr ? rec.label : "action",
                  drop_reason_name(static_cast<DropReason>(rec.code)),
                  server_or_dash(rec.server).c_str());
  }
  if (t == event_type_index<PrimaryPromoted>()) {
    return format("partition %u promoted server %u to primary", rec.partition,
                  rec.server);
  }
  if (t == event_type_index<Reseeded>()) {
    return format("partition %u lost all copies; reseeded empty at "
                  "server %u (data loss)",
                  rec.partition, rec.server);
  }
  if (t == event_type_index<LinkFailed>()) {
    return format("link between datacenters %u and %u failed",
                  static_cast<unsigned>(rec.dc), rec.aux);
  }
  if (t == event_type_index<LinkRestored>()) {
    return format("link between datacenters %u and %u restored",
                  static_cast<unsigned>(rec.dc), rec.aux);
  }
  if (t == event_type_index<FaultInjected>()) {
    std::string text =
        format("chaos injected %s", rec.label != nullptr ? rec.label : "?");
    if (rec.a > 0) text += format(" (%.0f servers)", rec.a);
    if (rec.dc != TimelineRecord::kNoDc) {
      text += format(" [dc %u]", static_cast<unsigned>(rec.dc));
    }
    if (rec.server != TimelineRecord::kNoEntity &&
        rec.aux != TimelineRecord::kNoEntity) {
      text += format(" [link %u-%u]", rec.server, rec.aux);
    }
    if (rec.b != 0.0) text += format(" [x%.3g traffic]", rec.b);
    return text;
  }
  if (t == event_type_index<TrafficShift>()) {
    return format("partition %u demand shifted: q_bar %.3g -> %.3g",
                  rec.partition, rec.a, rec.b);
  }
  if (t == event_type_index<RuleFired>()) {
    const auto rule = static_cast<DecisionRule>(rec.code);
    return format("partition %u rule %s fired: %s — %.3g vs %.3g",
                  rec.partition, rule_name(rule), rule_inequality(rule),
                  rec.a, rec.b);
  }
  if (t == event_type_index<SloBreach>()) {
    return format("SLO %s breached: %.4g vs target %.4g",
                  rec.label != nullptr ? rec.label : "?", rec.a, rec.b);
  }
  if (t == event_type_index<StatsFrozen>()) {
    return format("server %u traffic stats %s", rec.server,
                  rec.a != 0.0 ? "frozen (stale reports)" : "thawed");
  }
  if (t == event_type_index<StripeLost>()) {
    return format("partition %u stripe lost: %.0f fragments alive, below "
                  "the reconstruction threshold k (data loss)",
                  rec.partition, rec.a);
  }
  if (t == event_type_index<StripeReconstructed>()) {
    return format("partition %u stripe reconstructed: k live fragments "
                  "restored",
                  rec.partition);
  }
  if (t == event_type_index<QueueSaturated>()) {
    return format("server %u (dc %u) queue saturated: depth %.0f/%u, "
                  "%.0f dropped",
                  rec.server, static_cast<unsigned>(rec.dc), rec.b, rec.aux,
                  rec.a);
  }
  if (t == event_type_index<StreamEpochSummary>()) {
    return format("stream: %.0f arrivals, %.0f dropped", rec.a, rec.b);
  }
  return event_index_name(t);
}

std::string render_chain(std::span<const TimelineRecord> chain,
                         bool truncated) {
  std::string out;
  if (chain.empty()) return out;
  if (truncated) {
    out += "(earlier causes evicted from the flight recorder)\n";
  }
  for (std::size_t depth = 0; depth < chain.size(); ++depth) {
    const TimelineRecord& rec = chain[depth];
    out.append(2 * depth, ' ');
    if (depth > 0) out += "`- ";
    out += format("[#%llu] epoch %4u %-18s ",
                  static_cast<unsigned long long>(rec.id), rec.epoch,
                  event_index_name(rec.type));
    out += describe_record(rec);
    out += '\n';
  }
  return out;
}

}  // namespace rfh
