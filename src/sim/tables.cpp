#include "sim/tables.h"

#include <algorithm>

#include "common/assert.h"

namespace rfh {

PartitionTable::PartitionTable(std::uint32_t partitions,
                               std::uint32_t initial_stride)
    : partitions_(partitions), stride_(std::max(1u, initial_stride)) {
  slots_.resize(std::size_t{partitions_} * stride_);
  count_.assign(partitions_, 0);
  version_.assign(partitions_, 0);
}

void PartitionTable::grow_stride() {
  const std::uint32_t wider = stride_ * 2;
  std::vector<Replica> grown(std::size_t{partitions_} * wider);
  for (std::uint32_t p = 0; p < partitions_; ++p) {
    std::copy_n(slots_.begin() + std::size_t{p} * stride_, count_[p],
                grown.begin() + std::size_t{p} * wider);
  }
  slots_ = std::move(grown);
  stride_ = wider;
}

void PartitionTable::add(PartitionId p, ServerId s, bool primary) {
  RFH_ASSERT(p.value() < partitions_);
  RFH_ASSERT_MSG(!has(p, s), "server already hosts this partition");
  if (count_[p.value()] == stride_) grow_stride();
  slots_[std::size_t{p.value()} * stride_ + count_[p.value()]] =
      Replica{s, primary};
  count_[p.value()] += 1;
  version_[p.value()] += 1;
  total_ += 1;
}

void PartitionTable::remove(PartitionId p, ServerId s) {
  RFH_ASSERT(p.value() < partitions_);
  Replica* base = slots_.data() + std::size_t{p.value()} * stride_;
  const std::uint32_t n = count_[p.value()];
  std::uint32_t at = n;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (base[i].server == s) {
      at = i;
      break;
    }
  }
  RFH_ASSERT_MSG(at < n, "no such replica");
  for (std::uint32_t i = at + 1; i < n; ++i) base[i - 1] = base[i];
  count_[p.value()] = n - 1;
  version_[p.value()] += 1;
  RFH_ASSERT(total_ > 0);
  total_ -= 1;
}

void PartitionTable::set_primary(PartitionId p, ServerId s) {
  RFH_ASSERT(p.value() < partitions_);
  Replica* base = slots_.data() + std::size_t{p.value()} * stride_;
  bool found = false;
  for (std::uint32_t i = 0; i < count_[p.value()]; ++i) {
    if (base[i].server == s) {
      base[i].primary = true;
      found = true;
    } else {
      base[i].primary = false;
    }
  }
  RFH_ASSERT_MSG(found, "set_primary: server hosts no copy");
  version_[p.value()] += 1;
}

ServerId PartitionTable::primary_of(PartitionId p) const {
  RFH_ASSERT(p.value() < partitions_);
  const Replica* base = slots_.data() + std::size_t{p.value()} * stride_;
  for (std::uint32_t i = 0; i < count_[p.value()]; ++i) {
    if (base[i].primary) return base[i].server;
  }
  return ServerId::invalid();
}

std::span<const Replica> PartitionTable::replicas(PartitionId p) const {
  RFH_ASSERT(p.value() < partitions_);
  return {slots_.data() + std::size_t{p.value()} * stride_,
          count_[p.value()]};
}

bool PartitionTable::has(PartitionId p, ServerId s) const {
  RFH_ASSERT(p.value() < partitions_);
  const Replica* base = slots_.data() + std::size_t{p.value()} * stride_;
  for (std::uint32_t i = 0; i < count_[p.value()]; ++i) {
    if (base[i].server == s) return true;
  }
  return false;
}

std::uint32_t PartitionTable::count(PartitionId p) const {
  RFH_ASSERT(p.value() < partitions_);
  return count_[p.value()];
}

std::uint32_t PartitionTable::version(PartitionId p) const {
  RFH_ASSERT(p.value() < partitions_);
  return version_[p.value()];
}

ServerTable::ServerTable(std::uint32_t servers)
    : alive_(servers, 0), copies_on_(servers, 0) {}

void ServerTable::bring_all_up() {
  std::fill(alive_.begin(), alive_.end(), std::uint8_t{1});
  live_count_ = servers();
}

bool ServerTable::alive(ServerId s) const {
  RFH_ASSERT(s.value() < alive_.size());
  return alive_[s.value()] != 0;
}

void ServerTable::set_alive(ServerId s, bool up) {
  RFH_ASSERT(s.value() < alive_.size());
  RFH_ASSERT_MSG((alive_[s.value()] != 0) != up, "liveness unchanged");
  alive_[s.value()] = up ? 1 : 0;
  if (up) {
    live_count_ += 1;
  } else {
    RFH_ASSERT(live_count_ > 0);
    live_count_ -= 1;
  }
}

std::uint32_t ServerTable::copies(ServerId s) const {
  RFH_ASSERT(s.value() < copies_on_.size());
  return copies_on_[s.value()];
}

void ServerTable::inc_copies(ServerId s) {
  RFH_ASSERT(s.value() < copies_on_.size());
  copies_on_[s.value()] += 1;
}

void ServerTable::dec_copies(ServerId s) {
  RFH_ASSERT(s.value() < copies_on_.size());
  RFH_ASSERT(copies_on_[s.value()] > 0);
  copies_on_[s.value()] -= 1;
}

}  // namespace rfh
