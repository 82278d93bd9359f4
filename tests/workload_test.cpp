#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "topology/world.h"

namespace rfh {
namespace {

double batch_total(const QueryBatch& batch) {
  double total = 0.0;
  for (const QueryFlow& flow : batch) total += flow.queries;
  return total;
}

WorkloadParams small_params() {
  WorkloadParams p;
  p.partitions = 16;
  p.datacenters = 10;
  p.mean_queries_per_epoch = 300.0;
  p.zipf_exponent = 0.8;
  return p;
}

TEST(UniformWorkload, TotalMatchesPoissonMean) {
  UniformWorkload workload(small_params());
  Rng rng(21);
  double total = 0.0;
  const int epochs = 300;
  for (Epoch e = 0; e < epochs; ++e) {
    total += batch_total(workload.generate(e, rng));
  }
  EXPECT_NEAR(total / epochs, 300.0, 5.0);
}

TEST(UniformWorkload, FlowsAreAggregatedAndValid) {
  UniformWorkload workload(small_params());
  Rng rng(22);
  const QueryBatch batch = workload.generate(0, rng);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
  for (const QueryFlow& flow : batch) {
    EXPECT_LT(flow.partition.value(), 16u);
    EXPECT_LT(flow.requester.value(), 10u);
    EXPECT_GT(flow.queries, 0.0);
    ++seen[{flow.partition.value(), flow.requester.value()}];
  }
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << "duplicate flow for partition " << key.first;
  }
}

TEST(UniformWorkload, RequestersRoughlyUniform) {
  UniformWorkload workload(small_params());
  Rng rng(23);
  std::vector<double> per_dc(10, 0.0);
  double total = 0.0;
  for (Epoch e = 0; e < 200; ++e) {
    for (const QueryFlow& flow : workload.generate(e, rng)) {
      per_dc[flow.requester.value()] += flow.queries;
      total += flow.queries;
    }
  }
  for (const double share : per_dc) {
    EXPECT_NEAR(share / total, 0.1, 0.02);
  }
}

TEST(UniformWorkload, ZipfSkewsPartitions) {
  WorkloadParams p = small_params();
  p.zipf_exponent = 1.0;
  UniformWorkload workload(p);
  Rng rng(24);
  std::vector<double> per_partition(p.partitions, 0.0);
  for (Epoch e = 0; e < 200; ++e) {
    for (const QueryFlow& flow : workload.generate(e, rng)) {
      per_partition[flow.partition.value()] += flow.queries;
    }
  }
  EXPECT_GT(per_partition[0], 3.0 * per_partition[p.partitions - 1]);
}

TEST(UniformWorkload, DeterministicUnderSameRngState) {
  UniformWorkload w1(small_params());
  UniformWorkload w2(small_params());
  Rng rng1(25);
  Rng rng2(25);
  for (Epoch e = 0; e < 5; ++e) {
    const QueryBatch b1 = w1.generate(e, rng1);
    const QueryBatch b2 = w2.generate(e, rng2);
    ASSERT_EQ(b1.size(), b2.size());
    for (std::size_t i = 0; i < b1.size(); ++i) {
      EXPECT_EQ(b1[i].partition, b2[i].partition);
      EXPECT_EQ(b1[i].requester, b2[i].requester);
      EXPECT_DOUBLE_EQ(b1[i].queries, b2[i].queries);
    }
  }
}

class FlashCrowdTest : public ::testing::Test {
 protected:
  FlashCrowdTest() : world_(build_paper_world()) {}

  FlashCrowdWorkload make(Epoch total_epochs) {
    return FlashCrowdWorkload(small_params(),
                              FlashCrowdWorkload::paper_stages(world_.dc),
                              total_epochs);
  }

  World world_;
};

TEST_F(FlashCrowdTest, StageBoundariesAreQuarters) {
  FlashCrowdWorkload workload = make(400);
  EXPECT_EQ(workload.stage_at(0), 0u);
  EXPECT_EQ(workload.stage_at(99), 0u);
  EXPECT_EQ(workload.stage_at(100), 1u);
  EXPECT_EQ(workload.stage_at(199), 1u);
  EXPECT_EQ(workload.stage_at(200), 2u);
  EXPECT_EQ(workload.stage_at(300), 3u);
  EXPECT_EQ(workload.stage_at(399), 3u);
  EXPECT_EQ(workload.stage_at(1000), 3u);  // beyond horizon: last stage
}

TEST_F(FlashCrowdTest, HotDatacentersGetEightyPercent) {
  FlashCrowdWorkload workload = make(400);
  Rng rng(26);
  double hot = 0.0;
  double total = 0.0;
  for (Epoch e = 0; e < 80; ++e) {  // stage 1: H, I, J hot
    for (const QueryFlow& flow : workload.generate(e, rng)) {
      total += flow.queries;
      if (flow.requester == world_.by_letter('H') ||
          flow.requester == world_.by_letter('I') ||
          flow.requester == world_.by_letter('J')) {
        hot += flow.queries;
      }
    }
  }
  EXPECT_NEAR(hot / total, 0.8, 0.03);
}

TEST_F(FlashCrowdTest, SecondStageMovesTheCrowd) {
  FlashCrowdWorkload workload = make(400);
  Rng rng(27);
  double hot_abc = 0.0;
  double total = 0.0;
  for (Epoch e = 110; e < 190; ++e) {  // stage 2: A, B, C hot
    for (const QueryFlow& flow : workload.generate(e, rng)) {
      total += flow.queries;
      if (flow.requester == world_.by_letter('A') ||
          flow.requester == world_.by_letter('B') ||
          flow.requester == world_.by_letter('C')) {
        hot_abc += flow.queries;
      }
    }
  }
  EXPECT_NEAR(hot_abc / total, 0.8, 0.03);
}

TEST_F(FlashCrowdTest, FinalStageIsUniform) {
  FlashCrowdWorkload workload = make(400);
  Rng rng(28);
  std::vector<double> per_dc(10, 0.0);
  double total = 0.0;
  for (Epoch e = 310; e < 400; ++e) {
    for (const QueryFlow& flow : workload.generate(e, rng)) {
      per_dc[flow.requester.value()] += flow.queries;
      total += flow.queries;
    }
  }
  for (const double share : per_dc) {
    EXPECT_NEAR(share / total, 0.1, 0.03);
  }
}

TEST_F(FlashCrowdTest, PaperStagesHaveExpectedShape) {
  const auto stages = FlashCrowdWorkload::paper_stages(world_.dc);
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].hot_dcs.size(), 3u);
  EXPECT_EQ(stages[3].hot_dcs.size(), 0u);  // uniform
  EXPECT_DOUBLE_EQ(stages[0].hot_share, 0.8);
  EXPECT_EQ(stages[0].hot_dcs[0], world_.by_letter('H'));
  EXPECT_EQ(stages[1].hot_dcs[0], world_.by_letter('A'));
  EXPECT_EQ(stages[2].hot_dcs[0], world_.by_letter('E'));
}

TEST(HotspotShiftWorkload, RotationMovesTheHotPartition) {
  WorkloadParams p;
  p.partitions = 16;
  p.datacenters = 10;
  p.zipf_exponent = 1.2;
  HotspotShiftWorkload workload(p, /*phase_epochs=*/50, /*shift=*/4);
  Rng rng(29);

  auto hottest_during = [&](Epoch lo, Epoch hi) {
    std::vector<double> per_partition(p.partitions, 0.0);
    for (Epoch e = lo; e < hi; ++e) {
      for (const QueryFlow& flow : workload.generate(e, rng)) {
        per_partition[flow.partition.value()] += flow.queries;
      }
    }
    return static_cast<std::uint32_t>(
        std::max_element(per_partition.begin(), per_partition.end()) -
        per_partition.begin());
  };

  const std::uint32_t first = hottest_during(0, 50);
  const std::uint32_t second = hottest_during(50, 100);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 4u);  // rotated by shift_per_phase
}

TEST(DiurnalWorkload, MeanSwingsSinusoidally) {
  WorkloadParams p = small_params();
  DiurnalWorkload workload(p, /*period_epochs=*/100, /*amplitude=*/0.6);
  // Analytic means: peak at t=25, trough at t=75.
  EXPECT_NEAR(workload.mean_at(0), 300.0, 1e-9);
  EXPECT_NEAR(workload.mean_at(25), 480.0, 1e-9);
  EXPECT_NEAR(workload.mean_at(75), 120.0, 1e-9);
  // Periodicity.
  EXPECT_DOUBLE_EQ(workload.mean_at(25), workload.mean_at(125));
}

TEST(DiurnalWorkload, SampledTotalsTrackTheModulatedMean) {
  WorkloadParams p = small_params();
  DiurnalWorkload workload(p, 100, 0.6);
  Rng rng(61);
  double peak = 0.0;
  double trough = 0.0;
  const int reps = 40;
  for (int r = 0; r < reps; ++r) {
    peak += batch_total(workload.generate(25, rng));
    trough += batch_total(workload.generate(75, rng));
  }
  EXPECT_NEAR(peak / reps, 480.0, 25.0);
  EXPECT_NEAR(trough / reps, 120.0, 15.0);
}

TEST(SpikeWorkload, SpikesAtThePeriodAndNowhereElse) {
  WorkloadParams p = small_params();
  SpikeWorkload workload(p, /*spike_period=*/40, /*factor=*/10.0,
                         /*width=*/2);
  EXPECT_TRUE(workload.is_spike(0));
  EXPECT_TRUE(workload.is_spike(1));
  EXPECT_FALSE(workload.is_spike(2));
  EXPECT_FALSE(workload.is_spike(39));
  EXPECT_TRUE(workload.is_spike(40));
  EXPECT_TRUE(workload.is_spike(80));
}

TEST(SpikeWorkload, SpikeEpochsCarryTenfoldDemand) {
  WorkloadParams p = small_params();
  SpikeWorkload workload(p, 40, 10.0);
  Rng rng(62);
  double base = 0.0;
  double spike = 0.0;
  const int reps = 30;
  for (int r = 0; r < reps; ++r) {
    base += batch_total(workload.generate(5, rng));
    spike += batch_total(workload.generate(0, rng));
  }
  EXPECT_NEAR(base / reps, 300.0, 25.0);
  EXPECT_NEAR(spike / reps, 3000.0, 120.0);
}

TEST(SpikeWorkloadDeath, RejectsBadParameters) {
  WorkloadParams p = small_params();
  EXPECT_DEATH(SpikeWorkload(p, 1, 10.0, 1), "");   // period <= width
  EXPECT_DEATH(SpikeWorkload(p, 40, 0.5), "");      // factor < 1
  EXPECT_DEATH(SpikeWorkload(p, 40, 10.0, 0), "");  // zero width
}

TEST(DiurnalWorkloadDeath, RejectsBadParameters) {
  WorkloadParams p = small_params();
  EXPECT_DEATH(DiurnalWorkload(p, 0, 0.5), "");
  EXPECT_DEATH(DiurnalWorkload(p, 100, 1.0), "");
  EXPECT_DEATH(DiurnalWorkload(p, 100, -0.1), "");
}

TEST(SampleBatch, RotationWrapsModuloPartitions) {
  WorkloadParams p = small_params();
  ZipfSampler zipf(p.partitions, 5.0);  // extreme skew: almost surely rank 0
  const DiscreteSampler requesters(std::vector<double>(10, 1.0));
  Rng rng(30);
  const QueryBatch batch = sample_batch(200.0, zipf, requesters,
                                        /*rotation=*/p.partitions + 2, rng);
  double rotated = 0.0;
  double total = 0.0;
  for (const QueryFlow& flow : batch) {
    total += flow.queries;
    if (flow.partition == PartitionId{2}) rotated += flow.queries;
  }
  EXPECT_GT(rotated / total, 0.9);
}

}  // namespace
}  // namespace rfh
