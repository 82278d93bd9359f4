// Query workload generators (paper Section III-A).
//
// "At each epoch, the number of generated queries follows a Poisson
// distribution with a mean rate lambda" (Table I: lambda = 300/epoch).
// Partition popularity is Zipf-skewed (web-object popularity; the paper's
// running example revolves around hot partitions), and the requester mix
// over datacenters is what distinguishes the settings:
//
//  * random/even query: requesters uniform over all datacenters;
//  * flash crowd: four equal stages; in stages 1-3, 80% of all queries
//    come from three named datacenters (H,I,J -> A,B,C -> E,F,G), the
//    last stage is uniform;
//  * hotspot shift: the *partition* popularity ranking rotates mid-run
//    (the paper's second type of query surge).
//
// The streaming layer (src/stream/) deliberately adds no generator here:
// --workload=stream reuses UniformWorkload with mean_queries_per_epoch =
// StreamConfig::arrival_rate, so a stream run consumes the exact RNG
// stream a batch run does and their per-epoch QueryBatches are identical. Arrival *times*
// within an epoch are drawn downstream from a separate forked RNG
// (kStreamStreamTag), keeping Eqs. 2-19 and the differential oracle
// untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"

namespace rfh {

/// Aggregate demand q_ijt: queries for `partition` from requesters near
/// `requester` during one epoch.
struct QueryFlow {
  PartitionId partition;
  DatacenterId requester;
  double queries = 0.0;
};

/// One epoch of demand. Every built-in generator emits it *canonical*:
/// strictly ascending (partition, requester), one flow per key. The
/// engine accepts any order — EpochTraffic::set_demand sorts a batch
/// that is not canonical and merges its equal keys by summing them in
/// batch order — but for a canonical batch that step is a single scan.
using QueryBatch = std::vector<QueryFlow>;

class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;
  /// Generate one epoch of demand. Implementations must be deterministic
  /// given the Rng state.
  [[nodiscard]] virtual QueryBatch generate(Epoch epoch, Rng& rng) = 0;
};

struct WorkloadParams {
  std::uint32_t partitions = 64;          // Table I
  std::uint32_t datacenters = 10;         // Fig. 1
  double mean_queries_per_epoch = 300.0;  // Table I Poisson lambda
  double zipf_exponent = 0.8;             // partition popularity skew
};

/// Uniform requester mix ("random and even query rate").
class UniformWorkload final : public WorkloadGenerator {
 public:
  explicit UniformWorkload(const WorkloadParams& params);
  [[nodiscard]] QueryBatch generate(Epoch epoch, Rng& rng) override;

 private:
  WorkloadParams params_;
  ZipfSampler partition_sampler_;
  DiscreteSampler requester_sampler_;
};

/// One stage of a flash-crowd schedule.
struct FlashStage {
  /// Datacenters contributing `hot_share` of all queries; empty means the
  /// stage is uniform.
  std::vector<DatacenterId> hot_dcs;
  double hot_share = 0.8;
};

class FlashCrowdWorkload final : public WorkloadGenerator {
 public:
  /// `stages` are equal slices of [0, total_epochs); epochs beyond
  /// total_epochs reuse the final stage.
  FlashCrowdWorkload(const WorkloadParams& params,
                     const std::vector<FlashStage>& stages,
                     Epoch total_epochs);

  [[nodiscard]] QueryBatch generate(Epoch epoch, Rng& rng) override;

  /// Stage index active at `epoch`.
  [[nodiscard]] std::size_t stage_at(Epoch epoch) const noexcept;

  /// The paper's default 4-stage schedule over datacenter letters
  /// (H,I,J) -> (A,B,C) -> (E,F,G) -> uniform, 80% hot share.
  static std::vector<FlashStage> paper_stages(
      const std::vector<DatacenterId>& dc_by_letter);

 private:
  WorkloadParams params_;
  ZipfSampler partition_sampler_;
  std::vector<DiscreteSampler> stage_samplers_;  // one per stage
  Epoch total_epochs_;
};

/// Diurnal demand: the Poisson mean swings sinusoidally around its base
/// value — lambda(t) = mean * (1 + amplitude * sin(2*pi*t / period)) —
/// modelling the day/night cycle a geo-distributed store actually sees.
/// Requester mix stays uniform; the interesting question is whether the
/// replica census breathes with the load (RFH's suicide path) instead of
/// staying provisioned for the peak.
class DiurnalWorkload final : public WorkloadGenerator {
 public:
  DiurnalWorkload(const WorkloadParams& params, Epoch period_epochs,
                  double amplitude = 0.6);
  [[nodiscard]] QueryBatch generate(Epoch epoch, Rng& rng) override;

  /// The modulated Poisson mean at `epoch`.
  [[nodiscard]] double mean_at(Epoch epoch) const noexcept;

 private:
  WorkloadParams params_;
  ZipfSampler partition_sampler_;
  DiscreteSampler requester_sampler_;
  Epoch period_epochs_;
  double amplitude_;
};

/// Slashdot-effect spike train (the paper's opening motivation: "the
/// query rate for Web application data is highly irregular"). Demand runs
/// at the base mean, except every `spike_period`-th epoch where it is
/// multiplied by `spike_factor` for `spike_width` epochs. Spikes are too
/// brief for a well-damped policy to chase; a policy without hysteresis
/// replicates into each one and reclaims afterwards, churning copies.
class SpikeWorkload final : public WorkloadGenerator {
 public:
  SpikeWorkload(const WorkloadParams& params, Epoch spike_period,
                double spike_factor = 10.0, Epoch spike_width = 1);
  [[nodiscard]] QueryBatch generate(Epoch epoch, Rng& rng) override;

  [[nodiscard]] bool is_spike(Epoch epoch) const noexcept;

 private:
  WorkloadParams params_;
  ZipfSampler partition_sampler_;
  DiscreteSampler requester_sampler_;
  Epoch spike_period_;
  double spike_factor_;
  Epoch spike_width_;
};

/// Partition-popularity surge: the Zipf ranking is rotated by
/// `shift_per_phase` every `phase_epochs`, so yesterday's hot partition
/// cools down while a cold one becomes hot.
class HotspotShiftWorkload final : public WorkloadGenerator {
 public:
  HotspotShiftWorkload(const WorkloadParams& params, Epoch phase_epochs,
                       std::uint32_t shift_per_phase = 16);
  [[nodiscard]] QueryBatch generate(Epoch epoch, Rng& rng) override;

 private:
  WorkloadParams params_;
  ZipfSampler partition_sampler_;
  DiscreteSampler requester_sampler_;
  Epoch phase_epochs_;
  std::uint32_t shift_per_phase_;
};

/// Shared implementation: draw Poisson(total), then assign each query a
/// partition rank from the Zipf sampler (rotated by `partition_rotation`)
/// and a requester datacenter from `requesters`, aggregating equal
/// (partition, requester) pairs into one flow. The batch comes out
/// canonical. Generators build both samplers once, not per epoch.
QueryBatch sample_batch(double mean_total, const ZipfSampler& partitions,
                        const DiscreteSampler& requesters,
                        std::uint32_t partition_rotation, Rng& rng);

}  // namespace rfh
