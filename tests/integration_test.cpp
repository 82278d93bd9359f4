// End-to-end comparative runs (shortened paper scenarios) asserting the
// qualitative results of the evaluation section: who wins on which
// metric. These are the repository's regression net for the figures.
#include <gtest/gtest.h>

#include "common/availability.h"
#include "exec/sweep.h"
#include "harness/report.h"
#include "harness/runner.h"

namespace rfh {
namespace {

Scenario short_random_query() {
  Scenario s = Scenario::paper_random_query();
  s.epochs = 120;
  return s;
}

Scenario short_flash_crowd() {
  Scenario s = Scenario::paper_flash_crowd();
  s.epochs = 200;  // 4 stages of 50 epochs
  return s;
}

class RandomQueryComparison : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new ComparativeResult(run_comparison(short_random_query()));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static const ComparativeResult& result() { return *result_; }

  static double tail(PolicyKind kind, double EpochMetrics::* field) {
    return tail_mean(result().run(kind), field, 30);
  }

 private:
  static const ComparativeResult* result_;
};

const ComparativeResult* RandomQueryComparison::result_ = nullptr;

TEST_F(RandomQueryComparison, Fig3aUtilizationOrdering) {
  // RFH highest; random lowest (paper Fig. 3a).
  const double rfh = tail(PolicyKind::kRfh, &EpochMetrics::utilization);
  EXPECT_GT(rfh, tail(PolicyKind::kRequest, &EpochMetrics::utilization));
  EXPECT_GT(rfh, tail(PolicyKind::kOwner, &EpochMetrics::utilization));
  EXPECT_GT(tail(PolicyKind::kRequest, &EpochMetrics::utilization),
            tail(PolicyKind::kRandom, &EpochMetrics::utilization));
  EXPECT_GT(tail(PolicyKind::kOwner, &EpochMetrics::utilization),
            tail(PolicyKind::kRandom, &EpochMetrics::utilization));
}

TEST_F(RandomQueryComparison, Fig4ReplicaCensusOrdering) {
  // Random needs by far the most copies; RFH and request the fewest
  // (paper Fig. 4a/b).
  const double random =
      tail(PolicyKind::kRandom, &EpochMetrics::avg_replicas_per_partition);
  const double owner =
      tail(PolicyKind::kOwner, &EpochMetrics::avg_replicas_per_partition);
  const double rfh =
      tail(PolicyKind::kRfh, &EpochMetrics::avg_replicas_per_partition);
  const double request =
      tail(PolicyKind::kRequest, &EpochMetrics::avg_replicas_per_partition);
  EXPECT_GT(random, owner);
  EXPECT_GT(owner, rfh);
  EXPECT_GT(owner, request);
  EXPECT_GT(random, 1.5 * rfh);  // the paper's ~2x factor
}

TEST_F(RandomQueryComparison, Fig5ReplicationCostShape) {
  // Random pays the most total; RFH the least (paper Fig. 5a).
  const double random =
      tail(PolicyKind::kRandom, &EpochMetrics::replication_cost_total);
  const double rfh =
      tail(PolicyKind::kRfh, &EpochMetrics::replication_cost_total);
  EXPECT_GT(random, rfh);
  EXPECT_GT(random, tail(PolicyKind::kOwner,
                         &EpochMetrics::replication_cost_total));
  // Average cost: request-oriented pays more per copy than owner-oriented
  // (long-haul copies towards requesters, paper Fig. 5b).
  EXPECT_GT(tail(PolicyKind::kRequest, &EpochMetrics::replication_cost_avg),
            tail(PolicyKind::kOwner, &EpochMetrics::replication_cost_avg));
}

TEST_F(RandomQueryComparison, Fig6And7MigrationShape) {
  // Request migrates the most; random and owner never; RFH little
  // (paper Figs. 6-7).
  const auto migrations = [&](PolicyKind kind) {
    return result().run(kind).series.back().migrations_total;
  };
  EXPECT_EQ(migrations(PolicyKind::kRandom), 0u);
  EXPECT_EQ(migrations(PolicyKind::kOwner), 0u);
  EXPECT_GT(migrations(PolicyKind::kRequest), migrations(PolicyKind::kRfh));
  EXPECT_GT(migrations(PolicyKind::kRfh), 0u);
  EXPECT_GT(tail(PolicyKind::kRequest, &EpochMetrics::migration_cost_total),
            tail(PolicyKind::kRfh, &EpochMetrics::migration_cost_total));
}

TEST_F(RandomQueryComparison, Fig8LoadImbalanceShape) {
  // RFH balances best (paper Fig. 8a).
  const double rfh = tail(PolicyKind::kRfh, &EpochMetrics::load_imbalance);
  EXPECT_LT(rfh, tail(PolicyKind::kRequest, &EpochMetrics::load_imbalance));
  EXPECT_LT(rfh, tail(PolicyKind::kOwner, &EpochMetrics::load_imbalance));
  EXPECT_LT(rfh, tail(PolicyKind::kRandom, &EpochMetrics::load_imbalance));
}

TEST_F(RandomQueryComparison, Fig9PathDropsSharplyAtStart) {
  // All curves fall as the replica build-out raises hit chances
  // (paper Fig. 9a); RFH ends shorter than request-oriented.
  for (const PolicyRun& run : result().runs) {
    const double early = run.series[1].path_length;
    double late = 0.0;
    for (std::size_t e = run.series.size() - 20; e < run.series.size(); ++e) {
      late += run.series[e].path_length;
    }
    late /= 20.0;
    EXPECT_LT(late, early) << policy_name(run.kind);
  }
  EXPECT_LT(tail(PolicyKind::kRfh, &EpochMetrics::path_length),
            tail(PolicyKind::kRequest, &EpochMetrics::path_length));
}

TEST_F(RandomQueryComparison, EveryPolicyHoldsTheAvailabilityFloor) {
  const Scenario s = short_random_query();
  const std::uint32_t floor =
      min_replicas(s.sim.min_availability, s.sim.failure_rate);
  for (const PolicyRun& run : result().runs) {
    const double avg_tail =
        tail_mean(run, &EpochMetrics::avg_replicas_per_partition, 30);
    EXPECT_GE(avg_tail, static_cast<double>(floor) - 0.05)
        << policy_name(run.kind);
  }
}

class FlashCrowdComparison : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new ComparativeResult(run_comparison(short_flash_crowd()));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static const ComparativeResult& result() { return *result_; }

  static double stage_mean(PolicyKind kind, int stage,
                           double EpochMetrics::* field) {
    const PolicyRun& run = result().run(kind);
    const std::size_t len = run.series.size() / 4;
    const std::size_t lo = static_cast<std::size_t>(stage) * len;
    double sum = 0.0;
    for (std::size_t e = lo; e < lo + len; ++e) sum += run.series[e].*field;
    return sum / static_cast<double>(len);
  }

 private:
  static const ComparativeResult* result_;
};

const ComparativeResult* FlashCrowdComparison::result_ = nullptr;

TEST_F(FlashCrowdComparison, RfhUtilizationStaysOnTopThroughEveryStage) {
  for (int stage = 0; stage < 4; ++stage) {
    const double rfh =
        stage_mean(PolicyKind::kRfh, stage, &EpochMetrics::utilization);
    EXPECT_GT(rfh, stage_mean(PolicyKind::kRandom, stage,
                              &EpochMetrics::utilization))
        << "stage " << stage;
    EXPECT_GT(rfh, stage_mean(PolicyKind::kOwner, stage,
                              &EpochMetrics::utilization))
        << "stage " << stage;
  }
}

TEST_F(FlashCrowdComparison, RequestUtilizationDipsAtTheStageSwitch) {
  // Paper Fig. 3b: when the crowd moves, the request-oriented replicas
  // are stranded and its utilization drops before migration catches up.
  const PolicyRun& request = result().run(PolicyKind::kRequest);
  const std::size_t len = request.series.size() / 4;
  auto mean_over = [&](std::size_t lo, std::size_t n) {
    double sum = 0.0;
    for (std::size_t e = lo; e < lo + n; ++e) {
      sum += request.series[e].utilization;
    }
    return sum / static_cast<double>(n);
  };
  const double before = mean_over(len - 10, 10);     // end of stage 1
  const double after = mean_over(len + 2, 10);       // start of stage 2
  EXPECT_LT(after, before);
}

TEST_F(FlashCrowdComparison, RfhCensusStaysLeanWhileOthersInflate) {
  const double rfh = stage_mean(PolicyKind::kRfh, 3,
                                &EpochMetrics::avg_replicas_per_partition);
  const double random = stage_mean(
      PolicyKind::kRandom, 3, &EpochMetrics::avg_replicas_per_partition);
  const double owner = stage_mean(PolicyKind::kOwner, 3,
                                  &EpochMetrics::avg_replicas_per_partition);
  EXPECT_GT(random, 2.0 * rfh);
  EXPECT_GT(owner, rfh);
}

TEST_F(FlashCrowdComparison, MigrationCostsRiseUnderFlashCrowd) {
  // Paper Fig. 7: both request-oriented and RFH migrate more under flash
  // crowd than under random query (absolute totals compared on the same
  // horizon would need equal epochs; compare per-epoch rates instead).
  const Scenario uniform = short_random_query();
  const ComparativeResult uniform_result = run_comparison(uniform);
  const auto rate = [](const PolicyRun& run) {
    return run.series.back().migration_cost_total /
           static_cast<double>(run.series.size());
  };
  EXPECT_GT(rate(result().run(PolicyKind::kRequest)),
            rate(uniform_result.run(PolicyKind::kRequest)));
  EXPECT_GT(rate(result().run(PolicyKind::kRfh)),
            rate(uniform_result.run(PolicyKind::kRfh)));
}

TEST_F(FlashCrowdComparison, RfhImbalanceDoesNotDegradeUnderFlash) {
  const Scenario uniform = short_random_query();
  const ComparativeResult uniform_result = run_comparison(uniform);
  const double flash_rfh =
      stage_mean(PolicyKind::kRfh, 3, &EpochMetrics::load_imbalance);
  const double uniform_rfh = tail_mean(uniform_result.run(PolicyKind::kRfh),
                                       &EpochMetrics::load_imbalance, 30);
  EXPECT_LT(flash_rfh, uniform_rfh * 1.15);
}

TEST(IntegrationInvariants, StorageLimitAndInvariantsHoldForEveryPolicy) {
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 60;
  for (const PolicyKind kind : {PolicyKind::kRequest, PolicyKind::kOwner,
                                PolicyKind::kRandom, PolicyKind::kRfh}) {
    auto sim = make_simulation(scenario, kind);
    for (Epoch e = 0; e < scenario.epochs; ++e) {
      sim->step();
      if (e % 10 == 0) sim->cluster().check_invariants();
    }
    sim->cluster().check_invariants();
    for (const Server& server : sim->topology().servers()) {
      EXPECT_LE(sim->cluster().copies_on(server.id), server.spec.max_vnodes)
          << policy_name(kind);
    }
  }
}

TEST(IntegrationInvariants, UnservedDemandVanishesForAdaptivePolicies) {
  // After the build-out, RFH serves essentially all demand.
  Scenario scenario = Scenario::paper_random_query();
  scenario.epochs = 120;
  const PolicyRun run = run_policy(scenario, PolicyKind::kRfh);
  EXPECT_LT(tail_mean(run, &EpochMetrics::unserved_fraction, 30), 0.10);
}

}  // namespace
}  // namespace rfh
