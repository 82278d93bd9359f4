// The causal flight recorder: a compact, always-bounded, in-memory
// record of *why* the simulation did what it did.
//
// A TimelineStore is an EventSink that condenses every dispatched causal
// event (per-epoch summaries are skipped) into a fixed-size binary
// TimelineRecord (64 bytes: the causal envelope, the entities involved,
// and the observed-vs-threshold pair that justified the decision) and
// keeps them in per-partition ring buffers plus one global ring for
// partition-less events (faults, link changes, SLO breaches). Records
// evicted from a ring are offered to a deterministic reservoir —
// bottom-k by splitmix64(cause id) — so a bounded uniform sample of deep
// history survives arbitrarily long runs.
// Everything lives under a byte budget fixed at construction; at the
// 100k–1M-server scale where JSONL sinks explode, the recorder's cost
// stays O(budget) memory and O(1) per event.
//
// Determinism: insertion order, ring contents and the reservoir are pure
// functions of the (single-threaded) emission sequence — the reservoir's
// keep-set depends only on the multiset of evicted ids, not on timing —
// so digest() is byte-identical across --jobs values
// (tests/determinism_test.cpp).
//
// TimelineQuery builds id/partition/epoch/DC indexes over a snapshot and
// answers the forensic questions ("why did partition P drop to one
// replica at epoch E?") as cause chains, rendered by render_chain() as
// indented trees with the Eq. 12-17 context attached.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "obs/event_bus.h"

namespace rfh {

/// Variant alternative index of an event type, as stored in
/// TimelineRecord::type.
template <typename E>
[[nodiscard]] constexpr std::uint8_t event_type_index() noexcept {
  return static_cast<std::uint8_t>(Event(std::in_place_type<E>).index());
}

/// One condensed event. Fixed-size POD — no heap, trivially copyable.
/// Unused entity fields hold kNoEntity / kNoDc; `label` is either
/// nullptr or a static-duration string (fault kind, phase, objective).
struct TimelineRecord {
  static constexpr std::uint32_t kNoEntity = 0xffffffffu;
  static constexpr std::uint16_t kNoDc = 0xffffu;

  std::uint64_t id = 0;      // bus cause id (1-based)
  std::uint64_t parent = 0;  // causing record's id (0: root)
  const char* label = nullptr;
  /// The event's two headline numbers — for decision events the two
  /// sides of the fired inequality (observed vs threshold).
  double a = 0.0;
  double b = 0.0;
  Epoch epoch = 0;
  std::uint32_t partition = kNoEntity;
  std::uint32_t server = kNoEntity;  // primary server involved (target)
  std::uint32_t aux = kNoEntity;     // second server / link endpoint
  std::uint16_t dc = kNoDc;
  std::uint8_t type = 0;  // Event variant index
  std::uint8_t code = 0;  // DecisionRule / DropReason, per type
};

/// Condense one event (+ its causal envelope) into a record.
[[nodiscard]] TimelineRecord make_timeline_record(const Event& event,
                                                  const TraceMeta& meta);

/// Per-epoch summary events (EpochCompleted, PhaseSpan) are never
/// recorded: they are observational snapshots with no causal value, and
/// at one per epoch they would crowd the rings.
class TimelineStore final : public EventSink {
 public:
  /// The default budget is deliberately cache-friendly: the recorder
  /// rides along on the simulation hot path, and measurements show the
  /// overhead is dominated by the store's cache footprint, not
  /// per-record work (~4 MB costs ~11% of step wall, 256 KB under 5%).
  static constexpr std::size_t kDefaultByteBudget = std::size_t{256} << 10;
  /// Per-partition ring capacity clamp (records).
  static constexpr std::size_t kMinRing = 8;
  static constexpr std::size_t kMaxRing = 256;

  /// `byte_budget` is the total memory target across rings and
  /// reservoir; the store never allocates record storage beyond ~this
  /// many bytes. Forensic deep dives that want more history raise it.
  explicit TimelineStore(std::uint32_t partitions,
                         std::size_t byte_budget = kDefaultByteBudget);

  void on_event(const Event& event, const TraceMeta& meta) override;

  // --- observers --------------------------------------------------------
  [[nodiscard]] std::size_t ring_capacity() const noexcept { return cap_; }
  [[nodiscard]] std::size_t global_capacity() const noexcept {
    return global_cap_;
  }
  [[nodiscard]] std::size_t reservoir_capacity() const noexcept {
    return reservoir_cap_;
  }
  /// Records accepted (post filter), offered to the reservoir, and
  /// currently sampled there.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }
  [[nodiscard]] std::size_t sampled() const noexcept {
    return reservoir_.size();
  }
  /// Upper bound on record storage currently allocated.
  [[nodiscard]] std::size_t approx_bytes() const noexcept;

  /// Every retained record (rings + reservoir), cause-id ascending.
  [[nodiscard]] std::vector<TimelineRecord> snapshot() const;

  /// FNV-1a fingerprint over the canonical text of every retained record
  /// in deterministic order — the byte-identity witness for
  /// determinism_test.
  [[nodiscard]] std::uint64_t digest() const;

  /// One JSON object per retained record (cause-id ascending), for
  /// --blackbox-out archives.
  void dump_jsonl(std::ostream& out) const;

 private:
  struct Ring {
    std::vector<TimelineRecord> buf;
    std::size_t head = 0;  // oldest slot once full
  };

  void insert(Ring& ring, std::size_t cap, const TimelineRecord& rec);
  void offer_reservoir(const TimelineRecord& rec);
  void append_ring(std::vector<TimelineRecord>& out, const Ring& ring) const;

  std::size_t cap_ = 0;         // per-partition ring capacity
  std::size_t global_cap_ = 0;  // partition-less ring capacity
  std::size_t reservoir_cap_ = 0;
  std::vector<Ring> rings_;  // one per partition
  Ring global_;
  /// (splitmix64(id), record) pairs kept as a max-heap on the key; a
  /// record replaces the heap top when its key is smaller (bottom-k).
  std::vector<std::pair<std::uint64_t, TimelineRecord>> reservoir_;
  std::uint64_t total_ = 0;
  std::uint64_t evicted_ = 0;
};

// ---------------------------------------------------------------------------
// Forensic queries
// ---------------------------------------------------------------------------

/// Read-side index over a TimelineStore snapshot. Build once per query
/// session (O(n log n)); the store itself stays write-optimized.
class TimelineQuery {
 public:
  static constexpr Epoch kAnyEpoch = ~Epoch{0};

  explicit TimelineQuery(const TimelineStore& store);
  explicit TimelineQuery(std::vector<TimelineRecord> records);

  [[nodiscard]] const std::vector<TimelineRecord>& records() const noexcept {
    return records_;
  }
  /// Record by cause id (nullptr when unknown/evicted or id == 0).
  [[nodiscard]] const TimelineRecord* find(std::uint64_t id) const;

  /// All records touching partition p (chronological), optionally capped
  /// at epoch `until`.
  [[nodiscard]] std::vector<TimelineRecord> partition_history(
      PartitionId p, Epoch until = kAnyEpoch) const;
  /// All records stamped with epoch e (chronological).
  [[nodiscard]] std::vector<TimelineRecord> at_epoch(Epoch e) const;
  /// All records touching datacenter `dc` (chronological).
  [[nodiscard]] std::vector<TimelineRecord> dc_records(DatacenterId dc) const;

  /// The cause chain ending at `id`, root first. Walks parent links;
  /// stops at a root or at the first evicted/unknown ancestor.
  [[nodiscard]] std::vector<TimelineRecord> chain(std::uint64_t id) const;
  /// True when chain(id)'s root still has a nonzero parent — an ancestor
  /// was evicted (or never recorded), so the chain is a suffix.
  [[nodiscard]] bool chain_truncated(std::uint64_t id) const;

  /// "Why?": the cause chain of the most causally significant record for
  /// partition p at or before `at` — the latest state-changing outcome
  /// (action applied/refused, promotion, reseed), falling back to the
  /// latest record of any kind. Empty when the partition has no history.
  [[nodiscard]] std::vector<TimelineRecord> why(PartitionId p,
                                                Epoch at = kAnyEpoch) const;

 private:
  void build();

  std::vector<TimelineRecord> records_;  // cause-id ascending
  std::vector<std::uint32_t> by_partition_index_;  // indexes into records_
  std::vector<std::uint32_t> partition_offsets_;   // CSR offsets
  std::uint32_t partitions_ = 0;
};

/// One-line human rendering of a record ("partition 12 replicated ...
/// because r < r_min (Eq. 14): 1 vs 2").
[[nodiscard]] std::string describe_record(const TimelineRecord& rec);

/// Indented cause tree, root first (two spaces per causal hop). When
/// `truncated`, the first line notes that deeper ancestors were evicted.
[[nodiscard]] std::string render_chain(std::span<const TimelineRecord> chain,
                                       bool truncated = false);

}  // namespace rfh
