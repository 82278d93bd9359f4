// 64-bit hashing for the consistent-hashing ring.
//
// FNV-1a over bytes followed by a SplitMix64 finalizer: cheap, portable,
// and well-mixed enough that ring tokens spread uniformly. Implemented
// here (rather than relying on std::hash) so that ring placement is
// identical on every platform and standard library.
//
// Everything here is inline: every rendezvous weight and every ring
// token is a hash_combine over a hash64, and the relay table's liveness
// hooks evaluate thousands of them per churn wave. The bare FNV-1a fold
// is also the one byte-digest kernel of the series, timeline and sweep
// fingerprints, which include this header without linking the ring.
#pragma once

#include <cstdint>
#include <string_view>

namespace rfh {

namespace hash_detail {

/// SplitMix64 finalizer (avalanche mix).
constexpr std::uint64_t finalize(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace hash_detail

/// FNV-1a 64-bit offset basis: the running value of an empty digest.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Fold `bytes` into a running FNV-1a 64-bit value (no finalizer).
constexpr std::uint64_t fnv1a(std::uint64_t hash,
                              std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a 64-bit over a byte string, with avalanche finalizer.
constexpr std::uint64_t hash64(std::string_view bytes) noexcept {
  return hash_detail::finalize(fnv1a(kFnvOffset, bytes));
}

/// Hash a 64-bit integer (finalizer only; already fixed-width).
constexpr std::uint64_t hash64(std::uint64_t value) noexcept {
  return hash_detail::finalize(value + 0x9e3779b97f4a7c15ULL);
}

/// Order-dependent combination of two hashes.
constexpr std::uint64_t hash_combine(std::uint64_t a,
                                     std::uint64_t b) noexcept {
  return hash_detail::finalize(
      a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace rfh
