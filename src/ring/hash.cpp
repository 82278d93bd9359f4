#include "ring/hash.h"

namespace rfh {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

std::uint64_t hash64(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return hash_detail::finalize(h);
}

}  // namespace rfh
