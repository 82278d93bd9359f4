// 64-bit hashing for the consistent-hashing ring.
//
// FNV-1a over bytes followed by a SplitMix64 finalizer: cheap, portable,
// and well-mixed enough that ring tokens spread uniformly. Implemented
// here (rather than relying on std::hash) so that ring placement is
// identical on every platform and standard library.
//
// The integer kernels are inline: every rendezvous weight and every ring
// token is a hash_combine over a hash64, and the relay table's liveness
// hooks evaluate thousands of them per churn wave.
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

/// FNV-1a 64-bit over a byte string, with avalanche finalizer.
std::uint64_t hash64(std::string_view bytes) noexcept;

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
