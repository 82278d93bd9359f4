// Microbenchmark — ring lookup hot path, flat array vs the seed's
// std::map walk.
//
// The ring refactor (src/ring/ring.h) replaced a std::map<position,
// owner> with a sorted flat array + binary search behind a per-server
// liveness mask. This bench keeps the old implementation alive as an
// inline reference (same token hashing, same collision probe, so both
// structures hold identical tokens) and measures both on identical key
// streams:
//
//   * primary(key)            — one successor lookup;
//   * preference_list(key, 3) — a short Dynamo preference list, the
//     shape of the engine's own walks: RandomPolicy asks for r + 4
//     servers, and seed_primaries and lost-copy reseeding stream
//     for_each_preference and stop after the first few candidates;
//   * preference_list(key, S) — the full distinct-successor walk. No
//     engine path asks for it; both sides run the same O(tokens) dedup
//     walk per call (the flat ring caches no successor lists), so it
//     reads near 1x and shows what a full walk costs;
//   * churn wave — the write path: a batch leave plus rejoin of 0.5% of
//     a 10k-server ring (one churn_stream epoch's ring writes). The flat
//     ring keeps departed tokens behind a liveness mask, so a wave flips
//     flags; the seed erases and re-inserts every token.
//
// Reported ns/op are medians of kReps timed repetitions. `lookup_speedup`
// is the full-walk ratio at the paper's 100 servers; no gate reads it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include "bench_args.h"
#include "bench_report.h"
#include "ring/hash.h"
#include "ring/ring.h"

namespace {

/// The seed implementation: token positions in a std::map, every
/// preference_list a fresh clockwise dedup walk over map iterators.
class MapRing {
 public:
  explicit MapRing(std::uint32_t tokens_per_server)
      : tokens_per_server_(tokens_per_server) {}

  void add_server(rfh::ServerId server) {
    std::vector<std::uint64_t>& positions = tokens_[server];
    for (std::uint32_t i = 0; i < tokens_per_server_; ++i) {
      std::uint64_t pos =
          rfh::hash_combine(rfh::hash64(std::uint64_t{server.value()}),
                            rfh::hash64(std::uint64_t{i}));
      while (ring_.contains(pos)) ++pos;  // same probe as HashRing
      ring_.emplace(pos, server);
      positions.push_back(pos);
    }
    ++servers_;
  }

  void remove_server(rfh::ServerId server) {
    const auto it = tokens_.find(server);
    for (const std::uint64_t pos : it->second) ring_.erase(pos);
    tokens_.erase(it);
    --servers_;
  }

  [[nodiscard]] std::size_t server_count() const noexcept { return servers_; }

  [[nodiscard]] rfh::ServerId primary(std::uint64_t key) const {
    auto it = ring_.lower_bound(key);
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }

  [[nodiscard]] std::vector<rfh::ServerId> preference_list(
      std::uint64_t key, std::size_t n) const {
    std::vector<rfh::ServerId> out;
    out.reserve(n);
    auto it = ring_.lower_bound(key);
    if (it == ring_.end()) it = ring_.begin();
    for (std::size_t step = 0; step < ring_.size() && out.size() < n &&
                               out.size() < servers_;
         ++step) {
      if (std::find(out.begin(), out.end(), it->second) == out.end()) {
        out.push_back(it->second);
      }
      ++it;
      if (it == ring_.end()) it = ring_.begin();
    }
    return out;
  }

 private:
  std::uint32_t tokens_per_server_;
  std::map<std::uint64_t, rfh::ServerId> ring_;
  std::unordered_map<rfh::ServerId, std::vector<std::uint64_t>> tokens_;
  std::size_t servers_ = 0;
};

constexpr std::size_t kKeys = 1 << 13;
/// The full-walk op costs O(tokens) per call on the map reference, so it
/// gets a smaller key set to keep the bench fast.
constexpr std::size_t kWalkKeys = 1 << 9;
constexpr int kReps = 9;

/// Median over kReps of the per-op nanosecond cost of `fn` applied to
/// every key. `fn` returns a value folded into a checksum so the work
/// cannot be optimized away.
template <typename F>
double measure_ns_per_op(const std::vector<std::uint64_t>& keys, F&& fn,
                         std::uint64_t& checksum) {
  std::vector<double> samples;
  samples.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (const std::uint64_t key : keys) {
      checksum += fn(key);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    samples.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()) /
        static_cast<double>(keys.size()));
  }
  std::nth_element(samples.begin(), samples.begin() + kReps / 2,
                   samples.end());
  return samples[kReps / 2];
}

}  // namespace

int main(int argc, char** argv) {
  // Single-thread microbenchmark: --jobs is accepted for the uniform
  // bench interface but timing stays serial.
  (void)rfh::bench_jobs(argc, argv);
  rfh::BenchReport report("micro_ring");
  std::printf("# Ring lookup hot path: flat sorted array vs std::map walk\n");
  std::printf("%8s %22s %12s %12s %9s\n", "servers", "op", "map ns/op",
              "flat ns/op", "speedup");

  for (const std::uint32_t servers : {100u, 1000u}) {
    constexpr std::uint32_t kTokens = 16;
    rfh::HashRing flat(kTokens);
    MapRing map(kTokens);
    for (std::uint32_t s = 1; s <= servers; ++s) {
      flat.add_server(rfh::ServerId{s});
      map.add_server(rfh::ServerId{s});
    }

    std::mt19937_64 rng(0x52464Bu /* "RFK" */ + servers);
    std::vector<std::uint64_t> keys(kKeys);
    for (std::uint64_t& key : keys) key = rng();

    // Both structures must agree before timing means anything.
    for (const std::uint64_t key : keys) {
      if (flat.primary(key) != map.primary(key)) {
        std::fprintf(stderr, "bench_micro_ring: owner mismatch at key %llu\n",
                     static_cast<unsigned long long>(key));
        return 1;
      }
    }

    std::uint64_t checksum = 0;
    double map_primary = 0.0;
    double flat_primary = 0.0;
    double map_pref3 = 0.0;
    double flat_pref3 = 0.0;
    double map_walk = 0.0;
    double flat_walk = 0.0;
    {
      const auto stage =
          report.stage("measure_" + std::to_string(servers) + "_servers");
      map_primary = measure_ns_per_op(
          keys, [&](std::uint64_t k) { return map.primary(k).value(); },
          checksum);
      flat_primary = measure_ns_per_op(
          keys, [&](std::uint64_t k) { return flat.primary(k).value(); },
          checksum);
      map_pref3 = measure_ns_per_op(
          keys,
          [&](std::uint64_t k) { return map.preference_list(k, 3)[0].value(); },
          checksum);
      flat_pref3 = measure_ns_per_op(
          keys,
          [&](std::uint64_t k) {
            return flat.preference_list(k, 3)[0].value();
          },
          checksum);
      const std::vector<std::uint64_t> walk_keys(keys.begin(),
                                                 keys.begin() + kWalkKeys);
      map_walk = measure_ns_per_op(
          walk_keys,
          [&](std::uint64_t k) {
            return map.preference_list(k, servers).back().value();
          },
          checksum);
      flat_walk = measure_ns_per_op(
          walk_keys,
          [&](std::uint64_t k) {
            return flat.preference_list(k, servers).back().value();
          },
          checksum);
    }
    if (checksum == 0) std::printf("# impossible checksum\n");

    const double primary_speedup = map_primary / flat_primary;
    const double pref3_speedup = map_pref3 / flat_pref3;
    const double walk_speedup = map_walk / flat_walk;
    std::printf("%8u %22s %12.1f %12.1f %8.2fx\n", servers, "primary",
                map_primary, flat_primary, primary_speedup);
    std::printf("%8u %22s %12.1f %12.1f %8.2fx\n", servers,
                "preference_list(3)", map_pref3, flat_pref3, pref3_speedup);
    std::printf("%8u %22s %12.1f %12.1f %8.2fx\n", servers,
                "preference_list(all)", map_walk, flat_walk, walk_speedup);

    const std::string suffix = "_" + std::to_string(servers);
    report.add_metric("map_primary_ns" + suffix, map_primary);
    report.add_metric("flat_primary_ns" + suffix, flat_primary);
    report.add_metric("primary_speedup" + suffix, primary_speedup);
    report.add_metric("map_pref3_ns" + suffix, map_pref3);
    report.add_metric("flat_pref3_ns" + suffix, flat_pref3);
    report.add_metric("pref3_speedup" + suffix, pref3_speedup);
    report.add_metric("map_full_walk_ns" + suffix, map_walk);
    report.add_metric("flat_full_walk_ns" + suffix, flat_walk);
    report.add_metric("full_walk_speedup" + suffix, walk_speedup);
    // The full-walk ratio at the paper's world size (100 servers), kept
    // under its historical name so old reports still diff.
    if (servers == 100u) {
      report.add_metric("lookup_speedup", walk_speedup);
    }
  }

  // Membership churn: a batch leave plus rejoin of 0.5% of a 10k-server,
  // 16-token ring — the ring writes one churn_stream epoch makes. The
  // flat ring flips liveness flags; the map reference erases and
  // re-inserts every token.
  {
    constexpr std::uint32_t kServers = 10000;
    constexpr std::uint32_t kTokens = 16;
    constexpr std::size_t kWaveSize = kServers / 200;
    constexpr std::size_t kWaves = 64;
    rfh::HashRing flat(kTokens);
    MapRing map(kTokens);
    std::vector<rfh::ServerId> all;
    for (std::uint32_t s = 0; s < kServers; ++s) {
      all.push_back(rfh::ServerId{s});
      map.add_server(rfh::ServerId{s});
    }
    flat.add_servers(all);

    std::mt19937_64 rng(0x434855524Eu /* "CHURN" */);
    std::vector<std::vector<rfh::ServerId>> waves(kWaves);
    for (std::vector<rfh::ServerId>& wave : waves) {
      std::shuffle(all.begin(), all.end(), rng);
      wave.assign(all.begin(), all.begin() + kWaveSize);
    }
    std::vector<std::uint64_t> wave_ids(kWaves);
    for (std::size_t w = 0; w < kWaves; ++w) wave_ids[w] = w;

    std::uint64_t checksum = 0;
    double map_wave = 0.0;
    double flat_wave = 0.0;
    {
      const auto stage = report.stage("measure_churn_wave");
      map_wave = measure_ns_per_op(
          wave_ids,
          [&](std::uint64_t w) {
            for (const rfh::ServerId s : waves[w]) map.remove_server(s);
            for (const rfh::ServerId s : waves[w]) map.add_server(s);
            return map.server_count();
          },
          checksum);
      flat_wave = measure_ns_per_op(
          wave_ids,
          [&](std::uint64_t w) {
            flat.remove_servers(waves[w]);
            flat.add_servers(waves[w]);
            return flat.server_count();
          },
          checksum);
    }
    if (checksum == 0) std::printf("# impossible checksum\n");
    // A rejoin restores every token, so lookups must still agree.
    for (std::uint64_t key = 0; key < 4096; ++key) {
      const std::uint64_t k = rfh::hash64(key);
      if (flat.primary(k) != map.primary(k)) {
        std::fprintf(stderr,
                     "bench_micro_ring: owner mismatch after churn at key "
                     "%llu\n",
                     static_cast<unsigned long long>(k));
        return 1;
      }
    }
    const double churn_speedup = map_wave / flat_wave;
    std::printf("%8u %22s %12.1f %12.1f %8.2fx\n", kServers,
                "churn wave (0.5%)", map_wave, flat_wave, churn_speedup);
    report.add_metric("map_churn_wave_ns_10000", map_wave);
    report.add_metric("flat_churn_wave_ns_10000", flat_wave);
    report.add_metric("churn_wave_speedup_10000", churn_speedup);
  }
  report.write_file();
  return 0;
}
