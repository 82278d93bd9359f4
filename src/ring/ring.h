// Consistent-hashing ring with virtual nodes (paper Section II-B).
//
// "The partitioning scheme of RFH is built using a variant of consistent
// hashing. A ring topology is employed as the output range of a hash
// function. Each node is assigned a random value within the hashing space
// to represent its position."
//
// Each physical server owns `tokens` positions (virtual-node tokens) on a
// 64-bit ring. A partition's primary owner is the server owning the first
// token clockwise from the partition's hash; Dynamo-style replica chains
// are the next distinct servers clockwise. Join and departure move only
// the keyspace adjacent to the affected tokens, which the tests verify
// quantitatively.
//
// Storage layout: the ring is a flat array of (position, owner) entries
// kept sorted by position, so a lookup is one binary search over
// contiguous memory instead of a std::map node walk (membership changes
// are epoch-granular and rare; lookups are the hot path). Each token
// additionally carries a lazily built successor list — the distinct
// servers met walking clockwise from it — so preference_list is a slice
// copy after the first query per token. Both caches are invalidated as a
// whole whenever membership changes (the "membership epoch" bump); the
// results are defined to be byte-identical to the map-walk seed
// implementation, which tests/property_test.cpp checks against a
// std::map reference under randomized add/remove interleavings.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/ids.h"

namespace rfh {

class HashRing {
 public:
  /// tokens: virtual-node positions created per server (Dynamo's "number
  /// of virtual nodes" knob; more tokens -> smoother key distribution).
  explicit HashRing(std::uint32_t tokens_per_server = 16);

  void add_server(ServerId server);
  /// Bulk join: hash every token up front, sort once and merge — O(T log
  /// T) for T new tokens instead of the O(T²) sorted-insert loop, which
  /// is what makes 100k-server construction tractable. Produces the same
  /// ring as calling add_server per server: positions are pure hashes,
  /// and on the (astronomically unlikely) token collision the bulk path
  /// falls back to the incremental one so the linear-probe semantics stay
  /// authoritative.
  void add_servers(std::span<const ServerId> servers);
  void remove_server(ServerId server);
  /// Bulk leave: collect every victim token, then compact the ring in a
  /// single pass — O(R + T) for a ring of R tokens instead of the O(R)
  /// vector erase *per token* that sequential remove_server costs, which
  /// is what makes mass churn (2% of a 100k-server fleet per epoch)
  /// tractable. Produces exactly the ring sequential removals would.
  void remove_servers(std::span<const ServerId> servers);
  [[nodiscard]] bool contains(ServerId server) const;

  /// The server owning the first token at or clockwise after `key`.
  [[nodiscard]] ServerId primary(std::uint64_t key) const;

  /// Up to `n` *distinct* servers starting at the primary and walking
  /// clockwise (the Dynamo preference list for the key).
  [[nodiscard]] std::vector<ServerId> preference_list(std::uint64_t key,
                                                      std::size_t n) const;

  /// Stream the key's preference order — the same distinct-server
  /// clockwise walk preference_list slices — into `fn` without
  /// materializing or caching it. `fn` returns false to stop the walk.
  /// Callers that stop after a few candidates (replica seeding, loss
  /// repair) pay O(tokens scanned) instead of the full O(ring · servers)
  /// dedup walk, which is what keeps those paths flat at 100k servers.
  template <typename Fn>
  void for_each_preference(std::uint64_t key, Fn&& fn) const {
    RFH_ASSERT_MSG(!ring_.empty(), "ring is empty");
    const std::size_t slot = successor_slot(key);
    std::vector<ServerId> seen;  // tiny in practice: callers stop early
    seen.reserve(8);
    for (std::size_t step = 0; step < ring_.size(); ++step) {
      const ServerId candidate = ring_[(slot + step) % ring_.size()].owner;
      if (std::find(seen.begin(), seen.end(), candidate) != seen.end()) {
        continue;
      }
      seen.push_back(candidate);
      if (!fn(candidate)) return;
      if (seen.size() == server_tokens_.size()) return;
    }
  }

  /// Primary owner for a partition id.
  [[nodiscard]] ServerId partition_owner(PartitionId partition) const;

  [[nodiscard]] std::size_t server_count() const noexcept {
    return server_tokens_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }

  /// Bumped on every add_server/remove_server; consumers caching derived
  /// placement (successor snapshots) compare epochs to know when to
  /// rebuild.
  [[nodiscard]] std::uint64_t membership_epoch() const noexcept {
    return membership_epoch_;
  }

  /// Hash position used for a partition (exposed for tests).
  [[nodiscard]] static std::uint64_t partition_key(PartitionId partition);

 private:
  struct Token {
    std::uint64_t position = 0;
    ServerId owner;
  };

  /// Index of the first token at or after `key`, wrapping to 0 past the
  /// end. Ring must be non-empty.
  [[nodiscard]] std::size_t successor_slot(std::uint64_t key) const;
  [[nodiscard]] bool has_token_at(std::uint64_t position) const;
  /// The slot's distinct-server clockwise walk, built on first use after
  /// a membership change.
  [[nodiscard]] const std::vector<ServerId>& successors_of(
      std::size_t slot) const;

  std::uint32_t tokens_per_server_;
  std::vector<Token> ring_;  // sorted by position
  std::unordered_map<ServerId, std::vector<std::uint64_t>> server_tokens_;
  std::uint64_t membership_epoch_ = 0;
  /// successor_cache_[slot] is empty until queried (a ring with servers
  /// always has at least one distinct successor, so empty == not built).
  mutable std::vector<std::vector<ServerId>> successor_cache_;
};

}  // namespace rfh
