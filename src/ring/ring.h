// Consistent-hashing ring with virtual nodes (paper Section II-B).
//
// "The partitioning scheme of RFH is built using a variant of consistent
// hashing. A ring topology is employed as the output range of a hash
// function. Each node is assigned a random value within the hashing space
// to represent its position."
//
// Each physical server owns `tokens` positions (virtual-node tokens) on a
// 64-bit ring. A partition's primary owner is the server owning the first
// live token clockwise from the partition's hash; Dynamo-style replica
// chains are the next distinct live servers clockwise. Join and departure
// move only the keyspace adjacent to the affected tokens, which the tests
// verify quantitatively.
//
// Storage layout: the ring is a flat array of (position, owner) entries
// kept sorted by position, holding every token the ring was ever given,
// so a lookup is one binary search over contiguous memory. Liveness is a
// per-server mask beside it: a departure clears the server's live flag
// and a rejoin sets it again, while its tokens stay where they are.
// Lookups skip tokens whose owner is down, so the answers are exactly
// those of a ring built from the live servers alone, and a membership
// change costs O(1) per known server instead of a rebuild of the array.
// Each token additionally carries a lazily built successor list — the
// distinct live servers met walking clockwise from it — so
// preference_list is a slice copy after the first query per token; a
// list is stamped with the membership epoch it was built at and rebuilt
// when that epoch is stale. tests/property_test.cpp checks the ring
// against a std::map reference under randomized add/remove
// interleavings, and against a ring freshly built from the live set
// after kill/revive waves.
//
// Probe rule: a server's tokens are placed once, on its first join.
// Token i goes to the first position at or after
// hash_combine(hash64(server), hash64(i)) that no token on the ring —
// live or departed — already holds, so every server owns exactly
// tokens_per_server positions and a rejoin restores exactly the old
// ones. Without a 64-bit position collision this is the same ring a
// rebuild from the live set produces; with one, the probe also steps
// over departed servers' tokens, which a rebuild would not.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/ids.h"

namespace rfh {

class HashRing {
 public:
  /// tokens: virtual-node positions created per server (Dynamo's "number
  /// of virtual nodes" knob; more tokens -> smoother key distribution).
  explicit HashRing(std::uint32_t tokens_per_server = 16);

  /// Join (or rejoin) one server. A server seen before only gets its live
  /// flag back; a new one inserts its tokens by the probe rule.
  void add_server(ServerId server);
  /// Bulk join. Known servers rejoin in O(1) each; the tokens of new
  /// servers are hashed, sorted and merged once, O(T log T + R) for T new
  /// tokens on a ring of R, instead of the O(T·R) sorted-insert loop. On
  /// a token collision among new servers it falls back to add_server per
  /// new server, so the probe rule stays authoritative. The result is the
  /// ring sequential add_server calls produce.
  void add_servers(std::span<const ServerId> servers);
  /// Departure: clears the server's live flag; its tokens stay.
  void remove_server(ServerId server);
  /// Bulk departure: O(1) per victim, the same ring sequential
  /// remove_server calls produce.
  void remove_servers(std::span<const ServerId> servers);
  /// True while the server is live on the ring.
  [[nodiscard]] bool contains(ServerId server) const;

  /// The server owning the first live token at or clockwise after `key`.
  [[nodiscard]] ServerId primary(std::uint64_t key) const;

  /// Up to `n` *distinct* live servers starting at the primary and walking
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
    RFH_ASSERT_MSG(live_count_ > 0, "ring is empty");
    const std::size_t slot = successor_slot(key);
    std::vector<ServerId> seen;  // tiny in practice: callers stop early
    seen.reserve(8);
    for (std::size_t step = 0; step < ring_.size(); ++step) {
      const ServerId candidate = ring_[(slot + step) % ring_.size()].owner;
      if (!live(candidate) ||
          std::find(seen.begin(), seen.end(), candidate) != seen.end()) {
        continue;
      }
      seen.push_back(candidate);
      if (!fn(candidate)) return;
      if (seen.size() == live_count_) return;
    }
  }

  /// Primary owner for a partition id.
  [[nodiscard]] ServerId partition_owner(PartitionId partition) const;

  /// Live servers on the ring.
  [[nodiscard]] std::size_t server_count() const noexcept {
    return live_count_;
  }
  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }

  /// Bumped on every membership change; consumers caching derived
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
  enum class Member : std::uint8_t { kNever, kDeparted, kLive };
  /// One slot's distinct-live-server clockwise walk and the membership
  /// epoch it was built at.
  struct Walk {
    std::uint64_t epoch = 0;
    std::vector<ServerId> servers;
  };

  [[nodiscard]] Member member(ServerId server) const {
    return server.value() < members_.size() ? members_[server.value()]
                                            : Member::kNever;
  }
  [[nodiscard]] bool live(ServerId server) const {
    return members_[server.value()] == Member::kLive;
  }
  /// Flip a known (departed) server back to live.
  void rejoin(ServerId server);
  /// Index of the first token at or after `key`, wrapping to 0 past the
  /// end. Ring must be non-empty.
  [[nodiscard]] std::size_t successor_slot(std::uint64_t key) const;
  [[nodiscard]] bool has_token_at(std::uint64_t position) const;
  /// The slot's distinct-live-server clockwise walk, rebuilt on first use
  /// after a membership change.
  [[nodiscard]] const std::vector<ServerId>& successors_of(
      std::size_t slot) const;

  std::uint32_t tokens_per_server_;
  std::vector<Token> ring_;  // sorted by position; departed owners stay
  std::vector<Member> members_;  // by server id
  std::uint32_t live_count_ = 0;
  /// Starts at 1 so a default Walk (epoch 0) is always stale.
  std::uint64_t membership_epoch_ = 1;
  /// successor_cache_[slot], sized to the ring on first use (and again
  /// when new servers grow it).
  mutable std::vector<Walk> successor_cache_;
};

}  // namespace rfh
