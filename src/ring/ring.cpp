#include "ring/ring.h"

#include <algorithm>

#include "common/assert.h"
#include "ring/hash.h"

namespace rfh {

HashRing::HashRing(std::uint32_t tokens_per_server)
    : tokens_per_server_(tokens_per_server) {
  RFH_ASSERT(tokens_per_server_ > 0);
}

std::size_t HashRing::successor_slot(std::uint64_t key) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const Token& t, std::uint64_t k) { return t.position < k; });
  if (it == ring_.end()) return 0;  // wrap around
  return static_cast<std::size_t>(it - ring_.begin());
}

bool HashRing::has_token_at(std::uint64_t position) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), position,
      [](const Token& t, std::uint64_t k) { return t.position < k; });
  return it != ring_.end() && it->position == position;
}

void HashRing::add_server(ServerId server) {
  RFH_ASSERT(server.valid());
  RFH_ASSERT_MSG(!contains(server), "server already on ring");
  std::vector<std::uint64_t>& tokens = server_tokens_[server];
  tokens.reserve(tokens_per_server_);
  ring_.reserve(ring_.size() + tokens_per_server_);
  for (std::uint32_t i = 0; i < tokens_per_server_; ++i) {
    std::uint64_t pos = hash_combine(hash64(std::uint64_t{server.value()}),
                                     hash64(std::uint64_t{i}));
    // Token collisions across servers are astronomically unlikely but
    // would silently drop a token; probe linearly to keep the invariant
    // "every server owns exactly tokens_per_server_ positions".
    while (has_token_at(pos)) ++pos;
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(), pos,
        [](const Token& t, std::uint64_t k) { return t.position < k; });
    ring_.insert(it, Token{pos, server});
    tokens.push_back(pos);
  }
  ++membership_epoch_;
  successor_cache_.clear();
}

void HashRing::add_servers(std::span<const ServerId> servers) {
  if (servers.empty()) return;
  // Hash every token up front, keeping per-server i-order for
  // server_tokens_ (matching the incremental path's stored order).
  std::vector<Token> fresh;
  fresh.reserve(servers.size() * tokens_per_server_);
  for (const ServerId server : servers) {
    RFH_ASSERT(server.valid());
    RFH_ASSERT_MSG(!contains(server), "server already on ring");
    for (std::uint32_t i = 0; i < tokens_per_server_; ++i) {
      fresh.push_back(Token{hash_combine(hash64(std::uint64_t{server.value()}),
                                         hash64(std::uint64_t{i})),
                            server});
    }
  }
  std::vector<Token> sorted = fresh;
  std::sort(sorted.begin(), sorted.end(),
            [](const Token& a, const Token& b) { return a.position < b.position; });
  std::vector<Token> merged(ring_.size() + sorted.size());
  std::merge(ring_.begin(), ring_.end(), sorted.begin(), sorted.end(),
             merged.begin(), [](const Token& a, const Token& b) {
               return a.position < b.position;
             });
  for (std::size_t i = 1; i < merged.size(); ++i) {
    if (merged[i].position == merged[i - 1].position) {
      // Token collision: nothing has been committed yet, so defer to the
      // incremental path whose linear probe defines the semantics.
      for (const ServerId server : servers) add_server(server);
      return;
    }
  }
  ring_ = std::move(merged);
  for (const Token& token : fresh) {
    server_tokens_[token.owner].push_back(token.position);
  }
  ++membership_epoch_;
  successor_cache_.clear();
}

void HashRing::remove_server(ServerId server) {
  const auto it = server_tokens_.find(server);
  RFH_ASSERT_MSG(it != server_tokens_.end(), "server not on ring");
  for (const std::uint64_t pos : it->second) {
    const auto slot = std::lower_bound(
        ring_.begin(), ring_.end(), pos,
        [](const Token& t, std::uint64_t k) { return t.position < k; });
    RFH_ASSERT(slot != ring_.end() && slot->position == pos);
    ring_.erase(slot);
  }
  server_tokens_.erase(it);
  ++membership_epoch_;
  successor_cache_.clear();
}

void HashRing::remove_servers(std::span<const ServerId> servers) {
  if (servers.empty()) return;
  // Positions are unique, so a victim's tokens are exactly the tokens it
  // owns: flag the owners instead of searching the doomed positions.
  std::uint32_t max_id = 0;
  for (const ServerId server : servers) {
    max_id = std::max(max_id, server.value());
  }
  std::vector<std::uint8_t> doomed(std::size_t{max_id} + 1, 0);
  for (const ServerId server : servers) {
    const auto it = server_tokens_.find(server);
    RFH_ASSERT_MSG(it != server_tokens_.end(), "server not on ring");
    server_tokens_.erase(it);
    doomed[server.value()] = 1;
  }
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [&](const Token& t) {
                               return t.owner.value() <= max_id &&
                                      doomed[t.owner.value()] != 0;
                             }),
              ring_.end());
  ++membership_epoch_;
  successor_cache_.clear();
}

bool HashRing::contains(ServerId server) const {
  return server_tokens_.contains(server);
}

ServerId HashRing::primary(std::uint64_t key) const {
  RFH_ASSERT_MSG(!ring_.empty(), "ring is empty");
  return ring_[successor_slot(key)].owner;
}

const std::vector<ServerId>& HashRing::successors_of(std::size_t slot) const {
  if (successor_cache_.size() != ring_.size()) {
    successor_cache_.assign(ring_.size(), {});
  }
  std::vector<ServerId>& walk = successor_cache_[slot];
  if (walk.empty()) {
    // Full clockwise walk collecting each server once, in first-token
    // order — exactly the order the map-based dedup walk produced.
    walk.reserve(server_tokens_.size());
    for (std::size_t step = 0; step < ring_.size(); ++step) {
      const ServerId candidate = ring_[(slot + step) % ring_.size()].owner;
      if (std::find(walk.begin(), walk.end(), candidate) == walk.end()) {
        walk.push_back(candidate);
      }
      if (walk.size() == server_tokens_.size()) break;
    }
  }
  return walk;
}

std::vector<ServerId> HashRing::preference_list(std::uint64_t key,
                                                std::size_t n) const {
  RFH_ASSERT_MSG(!ring_.empty(), "ring is empty");
  const std::vector<ServerId>& walk = successors_of(successor_slot(key));
  const std::size_t take = std::min(n, walk.size());
  return std::vector<ServerId>(walk.begin(),
                               walk.begin() + static_cast<std::ptrdiff_t>(take));
}

std::uint64_t HashRing::partition_key(PartitionId partition) {
  return hash_combine(0x7061727469746E00ULL /* "partitn" */,
                      hash64(std::uint64_t{partition.value()}));
}

ServerId HashRing::partition_owner(PartitionId partition) const {
  return primary(partition_key(partition));
}

}  // namespace rfh
