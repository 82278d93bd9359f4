// Simulation configuration (paper Table I).
//
// Field-by-field mapping to Table I:
//   partitions = 64, partition size 512 KB, failure rate 0.1, minimum
//   availability 0.8, alpha 0.2, beta 2, gamma 1.5, delta 0.2, mu 1,
//   storage limit phi 70 %. Server-level capacities (10 GB storage,
//   300 MB/epoch replication, 100 MB/epoch migration) live in
//   topology::ServerSpec / WorldOptions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/availability.h"
#include "common/units.h"

namespace rfh {

/// Redundancy scheme for a partition's copies.
///  * kReplica: each copy is a full replica (the paper's scheme); any one
///    live copy can serve a read.
///  * kErasure: copies are (k+m) erasure-coded fragments of size
///    ceil(partition_size / k); any k live fragments reconstruct the
///    partition (reads fan out to k fragments, so served traffic is
///    counted in fragment units internally and folded back to logical
///    queries at the edges).
enum class RedundancyMode : std::uint8_t { kReplica = 0, kErasure = 1 };

/// Ring tokens per physical server (virtual-node granularity).
inline constexpr std::uint32_t kRingTokensPerServer = 16;
/// SLA target: the paper's motivating requirement is a response within
/// 300 ms for 99.9 % of requests.
inline constexpr double kSlaTargetMs = 300.0;
/// Latency charged to a query the system could not serve this epoch
/// (every copy saturated): it waits out the overload.
inline constexpr double kBlockedPenaltyMs = 1000.0;

struct SimConfig {
  std::uint32_t partitions = 64;
  Bytes partition_size = kib(512);

  /// Redundancy scheme. kReplica reproduces the paper byte-for-byte;
  /// kErasure generalizes Eq. 14 to a k-of-n binomial tail and Eq. 1's
  /// unit of transfer/storage to the fragment size partition_size / k.
  RedundancyMode redundancy = RedundancyMode::kReplica;
  /// Data fragments per stripe (EC mode only): any k of the n placed
  /// fragments reconstruct the partition.
  std::uint32_t ec_k = 4;
  /// Parity fragments per stripe (EC mode only): the stripe is written
  /// as n = k + m fragments.
  std::uint32_t ec_m = 2;

  /// Size of one placed unit: a full replica, or one EC fragment
  /// (ceil(partition_size / k), matching Eq. 1's cost c = d * f * s / b
  /// with s shrunk to s/k).
  [[nodiscard]] Bytes unit_size() const noexcept {
    if (redundancy == RedundancyMode::kErasure && ec_k > 1) {
      return (partition_size + ec_k - 1) / ec_k;
    }
    return partition_size;
  }
  /// Live units needed to serve a read: 1 replica, or k fragments.
  [[nodiscard]] std::uint32_t reconstruction_threshold() const noexcept {
    return redundancy == RedundancyMode::kErasure ? ec_k : 1u;
  }
  /// The Eq. 14 copy floor for this config: min_replicas in replica
  /// mode, or the k-of-n binomial-tail floor in EC mode (never below the
  /// full k + m stripe, so a healthy stripe always carries its parity
  /// budget). Every layer that reasons about "enough copies" — policy,
  /// reference oracle, invariant checker, mean-field model — calls this
  /// one helper.
  [[nodiscard]] std::uint32_t availability_floor() const noexcept {
    if (redundancy == RedundancyMode::kErasure) {
      return min_fragments(min_availability, failure_rate, ec_k,
                           ec_k + ec_m);
    }
    return min_replicas(min_availability, failure_rate);
  }

  /// Per-copy failure probability f in the availability window.
  double failure_rate = 0.1;
  /// Target availability A_expect (Eq. 14).
  double min_availability = 0.8;

  /// Smoothing factor (Eqs. 10-11).
  double alpha = 0.2;
  /// Eq. 10 as printed weights *history* by alpha (so alpha = 0.2 adapts
  /// fast); the surrounding prose ("take historical data into account")
  /// suggests the opposite orientation may have been intended. True =
  /// as printed; false = alpha weights the new sample
  /// (v = (1-alpha)*v_old + alpha*x). bench_ablation_thresholds measures
  /// both.
  bool alpha_weights_history = true;
  /// Holder overload threshold (Eq. 12): tr_ii >= beta * q_bar_i.
  double beta = 2.0;
  /// Traffic-hub threshold (Eq. 13): tr_ik >= gamma * q_bar_i.
  double gamma = 1.5;
  /// Suicide threshold (Eq. 15): tr_ik <= delta * q_bar_i.
  double delta = 0.2;
  /// Migration benefit threshold (Eq. 16): tr_j - tr_k >= mu * tr_bar_i.
  double mu = 1.0;
  /// Storage occupancy upper limit phi (Eq. 19).
  double storage_limit = 0.7;

  /// Safety cap on copies per partition (the adaptive loop stops well
  /// below this; the cap only guards against runaway configurations).
  std::uint32_t max_replicas_per_partition = 16;

  std::uint64_t seed = 42;
};

/// Empty when every range rule holds; otherwise "<name> expects <rule>,
/// got <value>" for the first field that breaks one, named as Table I,
/// the CLI flags and check-case JSON spell it (storage_limit is "phi").
/// The rules: partitions > 0; alpha in (0, 1); beta, gamma > 0; delta,
/// mu >= 0; phi in (0, 1]; failure_rate in (0, 1); min_availability in
/// [0, 1); and the Eq. 14 copy floor (availability_floor()) must fit
/// max_replicas_per_partition. Every reader of untrusted input
/// (parse_cli, CheckCase::from_json) calls this one function.
[[nodiscard]] std::string validate(const SimConfig& config);

/// Canonical spelling of a config's redundancy scheme: "replica" or
/// "ec(k,m)". parse_redundancy accepts exactly these spellings.
[[nodiscard]] std::string redundancy_spec(const SimConfig& config);

/// Parse a redundancy spec ("replica" or "ec(k,m)" with k >= 2, m >= 1,
/// k + m <= 16) into config.redundancy / ec_k / ec_m. Returns false and
/// sets `error` on any other input — an unsupported mode must be
/// rejected loudly, never silently defaulted to replica.
[[nodiscard]] bool parse_redundancy(std::string_view text, SimConfig& config,
                                    std::string& error);

}  // namespace rfh
