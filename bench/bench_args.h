// Shared argument handling for the bench_* drivers.
//
// Every bench accepts --jobs=N|auto (worker threads for its sweep
// fan-out; the rfh_cli grammar from harness/cli.h: auto = one per
// hardware thread, 1 = serial) or the RFH_JOBS environment variable when
// the flag is absent. Malformed values exit 2. Parallelism is purely a
// scheduling knob: every bench's figures and BENCH_*.json metrics are
// bit-identical for every jobs value.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "harness/cli.h"

namespace rfh {

/// Last --jobs=... among argv[1..], else $RFH_JOBS, else 0 (hardware).
/// Prints the grammar and exits 2 on a malformed value.
inline unsigned bench_jobs(int argc, char** argv) {
  const char* text = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) text = argv[i] + 7;
  }
  if (text == nullptr) text = std::getenv("RFH_JOBS");
  if (text == nullptr) return 0;
  const std::optional<unsigned> jobs = parse_jobs(text);
  if (!jobs) {
    std::fprintf(stderr, "%s: %s, got '%s'\n", argv[0],
                 std::string(kJobsError).c_str(), text);
    std::exit(2);
  }
  return *jobs;
}

}  // namespace rfh
