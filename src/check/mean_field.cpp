#include "check/mean_field.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/availability.h"
#include "harness/scenario.h"

namespace rfh {

namespace {

/// Binomial pmf row P(j deaths | k copies) for j = 0..k, computed with
/// the multiplicative recurrence C(k, j+1) = C(k, j) * (k-j)/(j+1) —
/// exactly the same doubles for every call site, so the chain is
/// deterministic across platforms that round identically.
void binomial_row(std::uint32_t k, double p, std::vector<double>& out) {
  out.assign(k + 1, 0.0);
  if (p <= 0.0) {
    out[0] = 1.0;
    return;
  }
  if (p >= 1.0) {
    out[k] = 1.0;
    return;
  }
  const double q = 1.0 - p;
  double coeff = 1.0;  // C(k, j)
  for (std::uint32_t j = 0; j <= k; ++j) {
    out[j] = coeff * std::pow(p, static_cast<double>(j)) *
             std::pow(q, static_cast<double>(k - j));
    coeff = coeff * static_cast<double>(k - j) / static_cast<double>(j + 1);
  }
}

double total_variation(std::span<const double> x, std::span<const double> y) {
  RFH_ASSERT(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += std::abs(x[i] - y[i]);
  return 0.5 * sum;
}

}  // namespace

MeanFieldParams MeanFieldParams::from_scenario(const Scenario& scenario) {
  // Every datacenter of either world carries the same rooms x racks x
  // servers (topology/world.h).
  const WorldOptions& w = scenario.world;
  const std::size_t n_servers =
      std::size_t{scenario.datacenters != 0 ? scenario.datacenters
                                            : kPaperDatacenters} *
      w.rooms_per_datacenter * w.racks_per_room * w.servers_per_rack;
  RFH_ASSERT(n_servers > 0);
  MeanFieldParams params;
  params.failure_rate = scenario.sim.failure_rate;
  // availability_floor() dispatches on the redundancy mode: Eq. 14's
  // min_replicas for replica runs, the k-of-n fragment floor for EC runs,
  // so the oracle tracks the same target the engine repairs toward.
  params.r_target = scenario.sim.availability_floor();
  params.max_replicas = scenario.sim.max_replicas_per_partition;

  // Expected kills per epoch over the run horizon: crash events land once,
  // churn events kill `kill` servers every `period` epochs inside their
  // window. Zone/DC outages are placement-correlated and deliberately
  // excluded (see header).
  double kills = 0.0;
  const Epoch horizon = scenario.epochs > 0 ? scenario.epochs : 1;
  for (const FaultEvent& e : scenario.fault_plan.events()) {
    switch (e.kind) {
      case FaultKind::kCrash:
        if (e.at < horizon) {
          kills += static_cast<double>(
              e.servers.empty() ? e.count
                                : static_cast<std::uint32_t>(e.servers.size()));
        }
        break;
      case FaultKind::kChurn: {
        const Epoch end = std::min(e.until, horizon);
        if (end > e.at) {
          const Epoch span = end - e.at;
          const Epoch waves = (span + e.period - 1) / e.period;
          kills += static_cast<double>(e.kill) * static_cast<double>(waves);
        }
        break;
      }
      default:
        break;
    }
  }
  params.death_prob = std::min(
      1.0, kills / static_cast<double>(horizon) /
               static_cast<double>(n_servers));
  return params;
}

void mean_field_step(const MeanFieldParams& params,
                     std::span<const double> census,
                     std::vector<double>& out) {
  const std::uint32_t cap = params.max_replicas;
  RFH_ASSERT(census.size() == cap + 1);
  out.assign(cap + 1, 0.0);
  std::vector<double> deaths;
  for (std::uint32_t k = 0; k <= cap; ++k) {
    const double mass = census[k];
    if (mass == 0.0) continue;
    binomial_row(k, params.death_prob, deaths);
    for (std::uint32_t j = 0; j <= k; ++j) {
      const double m = mass * deaths[j];
      if (m == 0.0) continue;
      std::uint32_t s = k - j;
      if (s == 0) s = 1;  // reseed at the ring successor (data loss)
      if (s < params.r_target && s < cap) {
        // Eq. 14 repair: +1 with probability repair_prob.
        out[s + 1] += m * params.repair_prob;
        out[s] += m * (1.0 - params.repair_prob);
      } else {
        out[std::min(s, cap)] += m;
      }
    }
  }
}

MeanFieldPrediction predict_census(const MeanFieldParams& params) {
  RFH_ASSERT(params.max_replicas >= 1);
  RFH_ASSERT(params.death_prob >= 0.0 && params.death_prob <= 1.0);
  RFH_ASSERT(params.repair_prob >= 0.0 && params.repair_prob <= 1.0);

  MeanFieldPrediction prediction;
  std::vector<double> pi(params.max_replicas + 1, 0.0);
  pi[std::min(params.r_target, params.max_replicas)] = 1.0;

  std::vector<double> next;
  for (std::uint32_t it = 0; it < params.max_iterations; ++it) {
    mean_field_step(params, pi, next);
    const double step = total_variation(pi, next);
    pi.swap(next);
    ++prediction.iterations;
    if (step <= params.tolerance) {
      prediction.converged = true;
      break;
    }
  }

  prediction.census = std::move(pi);
  for (std::size_t k = 0; k < prediction.census.size(); ++k) {
    prediction.expected_replicas +=
        prediction.census[k] * static_cast<double>(k);
    prediction.expected_availability +=
        prediction.census[k] *
        availability(static_cast<std::uint32_t>(k), params.failure_rate);
  }
  return prediction;
}

MeanFieldPrediction predict_census(const Scenario& scenario) {
  return predict_census(MeanFieldParams::from_scenario(scenario));
}

CensusComparison compare(std::span<const double> sim_census,
                         const MeanFieldPrediction& prediction,
                         double failure_rate) {
  const std::size_t bins = prediction.census.size();
  RFH_ASSERT(sim_census.size() <= bins);

  std::vector<double> sim(bins, 0.0);
  double total = 0.0;
  for (std::size_t k = 0; k < sim_census.size(); ++k) {
    RFH_ASSERT(sim_census[k] >= 0.0);
    total += sim_census[k];
  }
  if (total > 0.0) {
    for (std::size_t k = 0; k < sim_census.size(); ++k) {
      sim[k] = sim_census[k] / total;
    }
  }

  CensusComparison cmp;
  cmp.per_bin_error.resize(bins, 0.0);
  for (std::size_t k = 0; k < bins; ++k) {
    const double err = sim[k] - prediction.census[k];
    cmp.per_bin_error[k] = err;
    cmp.max_bin_error = std::max(cmp.max_bin_error, std::abs(err));
    cmp.sim_expected_replicas += sim[k] * static_cast<double>(k);
    cmp.sim_expected_availability +=
        sim[k] * availability(static_cast<std::uint32_t>(k), failure_rate);
  }
  cmp.total_variation = total_variation(sim, prediction.census);
  cmp.predicted_expected_replicas = prediction.expected_replicas;
  cmp.predicted_expected_availability = prediction.expected_availability;
  return cmp;
}

}  // namespace rfh
