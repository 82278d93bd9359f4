// Rendezvous (highest-random-weight) hashing.
//
// Used to pick the per-partition relay server inside a transit datacenter:
// deterministic, uniformly spread across the datacenter's servers, and
// stable under unrelated membership changes (only keys whose winner left
// move).
#pragma once

#include <cstdint>
#include <span>

#include "common/ids.h"

namespace rfh {

/// The server in `candidates` with the highest hash weight for `key`; a
/// tie goes to the lower id, so the pick does not depend on candidate
/// order. `candidates` must be non-empty.
///
/// A candidate's weight is hash_combine(key, hash64(id)). Callers that
/// pick often over the same servers pass `server_hashes`, a column of
/// hash64(id) indexed by server id (it must cover every candidate): the
/// pick is then the same, one finalizer per candidate cheaper.
ServerId rendezvous_pick(std::uint64_t key, std::span<const ServerId> candidates,
                         std::span<const std::uint64_t> server_hashes = {});

}  // namespace rfh
