// Process-wide heap allocation counter for the benchmark.
//
// alloc_count.cpp replaces the global operator new family with versions
// that bump one counter while counting is switched on. The benchmark
// turns counting on around the public calls it attributes allocations
// to, so untimed set-up and the untraced passes pay a single relaxed load
// per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on) noexcept;
/// Allocations made while counting was on, since process start.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace perfbench
