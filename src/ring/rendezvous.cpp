#include "ring/rendezvous.h"

#include "common/assert.h"
#include "ring/hash.h"

namespace rfh {

ServerId rendezvous_pick(std::uint64_t key,
                         std::span<const ServerId> candidates,
                         std::span<const std::uint64_t> server_hashes) {
  RFH_ASSERT_MSG(!candidates.empty(), "no candidates");
  const bool hashed = !server_hashes.empty();
  ServerId best = candidates.front();
  std::uint64_t best_weight = 0;
  bool first = true;
  for (const ServerId candidate : candidates) {
    RFH_ASSERT(!hashed || candidate.value() < server_hashes.size());
    const std::uint64_t weight = hash_combine(
        key, hashed ? server_hashes[candidate.value()]
                    : hash64(std::uint64_t{candidate.value()}));
    if (first || weight > best_weight ||
        (weight == best_weight && candidate < best)) {
      best = candidate;
      best_weight = weight;
      first = false;
    }
  }
  return best;
}

}  // namespace rfh
