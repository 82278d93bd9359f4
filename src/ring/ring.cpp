#include "ring/ring.h"

#include <algorithm>

#include "common/assert.h"
#include "ring/hash.h"

namespace rfh {

namespace {

std::uint64_t token_hash(ServerId server, std::uint32_t index) {
  return hash_combine(hash64(std::uint64_t{server.value()}),
                      hash64(std::uint64_t{index}));
}

}  // namespace

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

void HashRing::rejoin(ServerId server) {
  members_[server.value()] = Member::kLive;
  ++live_count_;
}

void HashRing::add_server(ServerId server) {
  RFH_ASSERT(server.valid());
  const Member was = member(server);
  RFH_ASSERT_MSG(was != Member::kLive, "server already on ring");
  if (was == Member::kDeparted) {
    rejoin(server);
    return;
  }
  if (members_.size() <= server.value()) {
    members_.resize(std::size_t{server.value()} + 1, Member::kNever);
  }
  ring_.reserve(ring_.size() + tokens_per_server_);
  for (std::uint32_t i = 0; i < tokens_per_server_; ++i) {
    std::uint64_t pos = token_hash(server, i);
    // Token collisions are astronomically unlikely but would silently
    // drop a token; probe linearly past every held position (see the
    // probe rule in ring.h).
    while (has_token_at(pos)) ++pos;
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(), pos,
        [](const Token& t, std::uint64_t k) { return t.position < k; });
    ring_.insert(it, Token{pos, server});
  }
  rejoin(server);
}

void HashRing::add_servers(std::span<const ServerId> servers) {
  if (servers.empty()) return;
  std::uint32_t max_id = 0;
  for (const ServerId server : servers) {
    RFH_ASSERT(server.valid());
    max_id = std::max(max_id, server.value());
  }
  if (members_.size() <= max_id) {
    members_.resize(std::size_t{max_id} + 1, Member::kNever);
  }
  std::vector<ServerId> fresh_servers;
  for (const ServerId server : servers) {
    const Member was = members_[server.value()];
    RFH_ASSERT_MSG(was != Member::kLive, "server already on ring");
    if (was == Member::kDeparted) {
      rejoin(server);
    } else {
      fresh_servers.push_back(server);
    }
  }
  if (fresh_servers.empty()) return;

  std::vector<Token> fresh;
  fresh.reserve(fresh_servers.size() * tokens_per_server_);
  for (const ServerId server : fresh_servers) {
    for (std::uint32_t i = 0; i < tokens_per_server_; ++i) {
      fresh.push_back(Token{token_hash(server, i), server});
    }
  }
  const auto by_position = [](const Token& a, const Token& b) {
    return a.position < b.position;
  };
  std::sort(fresh.begin(), fresh.end(), by_position);
  bool collision = false;
  for (std::size_t i = 0; i < fresh.size() && !collision; ++i) {
    collision = (i > 0 && fresh[i].position == fresh[i - 1].position) ||
                has_token_at(fresh[i].position);
  }
  if (collision) {
    // Nothing of the new servers is committed yet, so defer to the
    // incremental path whose linear probe defines the semantics.
    for (const ServerId server : fresh_servers) add_server(server);
    return;
  }
  const auto middle = static_cast<std::ptrdiff_t>(ring_.size());
  ring_.insert(ring_.end(), fresh.begin(), fresh.end());
  std::inplace_merge(ring_.begin(), ring_.begin() + middle, ring_.end(),
                     by_position);
  for (const ServerId server : fresh_servers) rejoin(server);
}

void HashRing::remove_server(ServerId server) {
  remove_servers(std::span<const ServerId>(&server, 1));
}

void HashRing::remove_servers(std::span<const ServerId> servers) {
  if (servers.empty()) return;
  for (const ServerId server : servers) {
    RFH_ASSERT_MSG(member(server) == Member::kLive, "server not on ring");
    members_[server.value()] = Member::kDeparted;
    --live_count_;
  }
}

bool HashRing::contains(ServerId server) const {
  return member(server) == Member::kLive;
}

ServerId HashRing::primary(std::uint64_t key) const {
  RFH_ASSERT_MSG(live_count_ > 0, "ring is empty");
  std::size_t slot = successor_slot(key);
  while (!live(ring_[slot].owner)) {
    if (++slot == ring_.size()) slot = 0;
  }
  return ring_[slot].owner;
}

std::vector<ServerId> HashRing::preference_list(std::uint64_t key,
                                                std::size_t n) const {
  std::vector<ServerId> out;
  out.reserve(std::min<std::size_t>(n, live_count_));
  for_each_preference(key, [&](ServerId server) {
    if (out.size() < n) out.push_back(server);
    return out.size() < n;
  });
  return out;
}

std::uint64_t HashRing::partition_key(PartitionId partition) {
  return hash_combine(0x7061727469746E00ULL /* "partitn" */,
                      hash64(std::uint64_t{partition.value()}));
}

ServerId HashRing::partition_owner(PartitionId partition) const {
  return primary(partition_key(partition));
}

}  // namespace rfh
