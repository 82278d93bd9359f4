// Flat struct-of-arrays tables backing the mutable cluster state.
//
// The seed engine kept replica placement as vector<vector<Replica>> — a
// pointer chase per partition that fragments the heap at 100k servers and
// defeats the sharded epoch passes (DESIGN.md §15), which want each
// shard's partitions contiguous in memory. These tables store the same
// state as parallel arrays:
//
//  * PartitionTable — one strided slab of Replica slots (partition p's
//    copies live at [p*stride, p*stride+count[p])), plus per-partition
//    count and placement-version columns. Insertion order and
//    shift-on-remove semantics are defined to match the nested-vector
//    seed exactly, so every consumer that iterates replicas_of() sees the
//    same sequence; the property test pins this against a std::map
//    reference under randomized churn.
//  * ServerTable — per-server liveness and copy-count columns with the
//    live-server aggregate maintained incrementally (a server's storage
//    is its copy count times the unit size, so it has no column).
//
// Neither table knows about the ring, the topology or Eq. 19 — ClusterState
// composes them and keeps the cross-cutting invariants.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"

namespace rfh {

struct Replica {
  ServerId server;
  bool primary = false;
};

class PartitionTable {
 public:
  explicit PartitionTable(std::uint32_t partitions,
                          std::uint32_t initial_stride = 4);

  /// Append a copy of `p` on `s` (asserts it is not already hosted).
  void add(PartitionId p, ServerId s, bool primary);
  /// Remove the copy of `p` on `s`, shifting later slots left — the same
  /// order-preserving erase the nested-vector seed performed.
  void remove(PartitionId p, ServerId s);
  /// Remove every copy of `p` for which `doomed(const Replica&)` is true,
  /// keeping the survivors in order. `doomed` is called once per copy, in
  /// slot order.
  template <typename Pred>
  void remove_if(PartitionId p, Pred&& doomed);
  /// Make the copy on `s` the sole primary of `p` (asserts it exists).
  void set_primary(PartitionId p, ServerId s);

  /// Moves on every add, remove and set_primary of `p`, and on a remove_if
  /// that removes a copy of it, so equal versions mean equal replicas(p).
  [[nodiscard]] std::uint32_t version(PartitionId p) const;

  [[nodiscard]] ServerId primary_of(PartitionId p) const;
  [[nodiscard]] std::span<const Replica> replicas(PartitionId p) const;
  [[nodiscard]] bool has(PartitionId p, ServerId s) const;
  [[nodiscard]] std::uint32_t count(PartitionId p) const;
  [[nodiscard]] std::uint32_t partitions() const noexcept {
    return partitions_;
  }
  /// Slots per partition; grows (doubling, slab rebuild) when any
  /// partition outgrows it.
  [[nodiscard]] std::uint32_t stride() const noexcept { return stride_; }
  /// Total copies across all partitions.
  [[nodiscard]] std::uint32_t total() const noexcept { return total_; }

 private:
  void grow_stride();

  std::vector<Replica> slots_;  // partitions_ * stride_
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> version_;
  std::uint32_t partitions_;
  std::uint32_t stride_;
  std::uint32_t total_ = 0;
};

template <typename Pred>
void PartitionTable::remove_if(PartitionId p, Pred&& doomed) {
  Replica* base = slots_.data() + std::size_t{p.value()} * stride_;
  const std::uint32_t n = count(p);
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!doomed(static_cast<const Replica&>(base[i]))) base[kept++] = base[i];
  }
  if (kept == n) return;
  count_[p.value()] = kept;
  version_[p.value()] += 1;
  total_ -= n - kept;
}

class ServerTable {
 public:
  /// All servers start dead with empty disks; bring_all_up() is the bulk
  /// construction path.
  explicit ServerTable(std::uint32_t servers);

  /// Mark every server alive in one pass (no per-server rebuilds).
  void bring_all_up();

  [[nodiscard]] bool alive(ServerId s) const;
  /// Flip liveness; asserts the transition is a real change.
  void set_alive(ServerId s, bool up);
  [[nodiscard]] std::uint32_t live_count() const noexcept {
    return live_count_;
  }

  [[nodiscard]] std::uint32_t copies(ServerId s) const;
  void inc_copies(ServerId s);
  void dec_copies(ServerId s);

  [[nodiscard]] std::uint32_t servers() const noexcept {
    return static_cast<std::uint32_t>(alive_.size());
  }

 private:
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> copies_on_;
  std::uint32_t live_count_ = 0;
};

}  // namespace rfh
