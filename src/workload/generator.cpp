#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace rfh {

QueryBatch sample_batch(double mean_total, const ZipfSampler& partitions,
                        const DiscreteSampler& requesters,
                        std::uint32_t partition_rotation, Rng& rng) {
  const std::uint64_t total = rng.poisson(mean_total);

  // Aggregate counts per (partition, requester).
  const std::size_t n_partitions = partitions.size();
  const std::size_t n_requesters = requesters.size();
  std::vector<double> counts(n_partitions * n_requesters, 0.0);
  for (std::uint64_t q = 0; q < total; ++q) {
    const std::size_t rank = partitions.sample(rng);
    const std::size_t partition =
        (rank + partition_rotation) % n_partitions;
    const std::size_t requester = requesters.sample(rng);
    counts[partition * n_requesters + requester] += 1.0;
  }

  QueryBatch batch;
  batch.reserve(std::min<std::size_t>(counts.size(), total));
  for (std::size_t p = 0; p < n_partitions; ++p) {
    for (std::size_t r = 0; r < n_requesters; ++r) {
      const double c = counts[p * n_requesters + r];
      if (c > 0.0) {
        batch.push_back(QueryFlow{
            PartitionId{static_cast<std::uint32_t>(p)},
            DatacenterId{static_cast<std::uint32_t>(r)}, c});
      }
    }
  }
  return batch;
}

namespace {

DiscreteSampler uniform_requesters(std::uint32_t n) {
  return DiscreteSampler(std::vector<double>(n, 1.0));
}

DiscreteSampler stage_requesters(const FlashStage& stage,
                                 std::uint32_t n_datacenters) {
  if (stage.hot_dcs.empty()) return uniform_requesters(n_datacenters);
  RFH_ASSERT(stage.hot_share > 0.0 && stage.hot_share < 1.0);
  RFH_ASSERT(stage.hot_dcs.size() < n_datacenters);
  const double hot_each =
      stage.hot_share / static_cast<double>(stage.hot_dcs.size());
  const double cold_each =
      (1.0 - stage.hot_share) /
      static_cast<double>(n_datacenters - stage.hot_dcs.size());
  std::vector<double> weights(n_datacenters, cold_each);
  for (const DatacenterId dc : stage.hot_dcs) {
    RFH_ASSERT(dc.value() < n_datacenters);
    weights[dc.value()] = hot_each;
  }
  return DiscreteSampler(weights);
}

}  // namespace

UniformWorkload::UniformWorkload(const WorkloadParams& params)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      requester_sampler_(uniform_requesters(params.datacenters)) {}

QueryBatch UniformWorkload::generate(Epoch /*epoch*/, Rng& rng) {
  return sample_batch(params_.mean_queries_per_epoch, partition_sampler_,
                      requester_sampler_, /*partition_rotation=*/0, rng);
}

FlashCrowdWorkload::FlashCrowdWorkload(const WorkloadParams& params,
                                       const std::vector<FlashStage>& stages,
                                       Epoch total_epochs)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      total_epochs_(total_epochs) {
  RFH_ASSERT(!stages.empty());
  RFH_ASSERT(total_epochs_ > 0);
  stage_samplers_.reserve(stages.size());
  for (const FlashStage& stage : stages) {
    stage_samplers_.push_back(stage_requesters(stage, params_.datacenters));
  }
}

std::size_t FlashCrowdWorkload::stage_at(Epoch epoch) const noexcept {
  const Epoch clamped = std::min(epoch, static_cast<Epoch>(total_epochs_ - 1));
  const std::size_t stage = static_cast<std::size_t>(clamped) *
                            stage_samplers_.size() / total_epochs_;
  return std::min(stage, stage_samplers_.size() - 1);
}

QueryBatch FlashCrowdWorkload::generate(Epoch epoch, Rng& rng) {
  return sample_batch(params_.mean_queries_per_epoch, partition_sampler_,
                      stage_samplers_[stage_at(epoch)],
                      /*partition_rotation=*/0, rng);
}

std::vector<FlashStage> FlashCrowdWorkload::paper_stages(
    const std::vector<DatacenterId>& dc_by_letter) {
  RFH_ASSERT(dc_by_letter.size() >= 10);
  auto dcs = [&](const char* letters) {
    std::vector<DatacenterId> out;
    for (const char* c = letters; *c != '\0'; ++c) {
      out.push_back(dc_by_letter[static_cast<std::size_t>(*c - 'A')]);
    }
    return out;
  };
  return {
      FlashStage{dcs("HIJ"), 0.8},
      FlashStage{dcs("ABC"), 0.8},
      FlashStage{dcs("EFG"), 0.8},
      FlashStage{{}, 0.8},  // uniform
  };
}

DiurnalWorkload::DiurnalWorkload(const WorkloadParams& params,
                                 Epoch period_epochs, double amplitude)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      requester_sampler_(uniform_requesters(params.datacenters)),
      period_epochs_(period_epochs),
      amplitude_(amplitude) {
  RFH_ASSERT(period_epochs_ > 0);
  RFH_ASSERT(amplitude_ >= 0.0 && amplitude_ < 1.0);
}

double DiurnalWorkload::mean_at(Epoch epoch) const noexcept {
  constexpr double kTwoPi = 6.283185307179586;
  const double phase = kTwoPi * static_cast<double>(epoch % period_epochs_) /
                       static_cast<double>(period_epochs_);
  return params_.mean_queries_per_epoch *
         (1.0 + amplitude_ * std::sin(phase));
}

QueryBatch DiurnalWorkload::generate(Epoch epoch, Rng& rng) {
  return sample_batch(mean_at(epoch), partition_sampler_, requester_sampler_,
                      /*partition_rotation=*/0, rng);
}

SpikeWorkload::SpikeWorkload(const WorkloadParams& params, Epoch spike_period,
                             double spike_factor, Epoch spike_width)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      requester_sampler_(uniform_requesters(params.datacenters)),
      spike_period_(spike_period),
      spike_factor_(spike_factor),
      spike_width_(spike_width) {
  RFH_ASSERT(spike_period_ > spike_width_);
  RFH_ASSERT(spike_factor_ >= 1.0);
  RFH_ASSERT(spike_width_ > 0);
}

bool SpikeWorkload::is_spike(Epoch epoch) const noexcept {
  return epoch % spike_period_ < spike_width_;
}

QueryBatch SpikeWorkload::generate(Epoch epoch, Rng& rng) {
  const double mean = params_.mean_queries_per_epoch *
                      (is_spike(epoch) ? spike_factor_ : 1.0);
  return sample_batch(mean, partition_sampler_, requester_sampler_,
                      /*partition_rotation=*/0, rng);
}

HotspotShiftWorkload::HotspotShiftWorkload(const WorkloadParams& params,
                                           Epoch phase_epochs,
                                           std::uint32_t shift_per_phase)
    : params_(params),
      partition_sampler_(params.partitions, params.zipf_exponent),
      requester_sampler_(uniform_requesters(params.datacenters)),
      phase_epochs_(phase_epochs),
      shift_per_phase_(shift_per_phase) {
  RFH_ASSERT(phase_epochs_ > 0);
}

QueryBatch HotspotShiftWorkload::generate(Epoch epoch, Rng& rng) {
  const std::uint32_t phase = epoch / phase_epochs_;
  const std::uint32_t rotation =
      (phase * shift_per_phase_) % params_.partitions;
  return sample_batch(params_.mean_queries_per_epoch, partition_sampler_,
                      requester_sampler_, rotation, rng);
}

}  // namespace rfh
