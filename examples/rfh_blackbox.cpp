// Flight-recorder forensics: run a scenario with the causal TimelineStore
// attached (obs/timeline.h), then interrogate the record — whole cause
// chains, not isolated log lines.
//
//   $ ./rfh_blackbox --why partition=7 epoch=120
//       # built-in failure drill; why did partition 7 end up where it was?
//   $ ./rfh_blackbox --fault-plan=chaos.plan --why partition=3
//   $ ./rfh_blackbox --case=tests/data/corpus/link_flap_churn.json --storm
//       # which fault chain caused the migration storm?
//   $ ./rfh_blackbox --kill=30@100 --slo=avail=0.99 --out=flight.jsonl
//       # archive the record (and SLO breaches) for offline analysis
//
// Flags:
//   --case=FILE       run a committed rfh-check-case/1 corpus scenario
//   --fault-plan=FILE run the paper scenario under a chaos plan
//   --kill=N@E        kill N random servers at epoch E (repeatable): the
//                     plan line `crash at=E count=N`, appended to the
//                     scenario's plan
//   --seed=N --epochs=N --partitions=N   scenario overrides
//   --slo=SPEC        arm the SLO watchdog (telemetry/slo.h grammar)
//   --why partition=P [epoch=E]   print the cause chain behind partition
//                     P's latest state change at or before E, then every
//                     retained record of P's lifecycle up to E
//   --storm           find the heaviest migration epoch and print the
//                     distinct cause chains feeding it
//   --out=FILE        dump the whole record as JSONL
// With no query flag the tool prints a summary of the record.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "check/case.h"
#include "common/parse.h"
#include "harness/cli.h"
#include "harness/runner.h"
#include "obs/timeline.h"

namespace {

constexpr const char* kDefaultDrill =
    "# rfh-fault-plan/1\n"
    "crash at=60 count=20\n"
    "linkdown at=80 a=0 b=1 restore_at=100\n"
    "recover at=110 count=20\n";

bool consume(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  value = arg + len;
  return true;
}

int usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "rfh_blackbox: %s\n", error);
  std::fprintf(stderr,
               "usage: rfh_blackbox [--case=FILE | --fault-plan=FILE] "
               "[--kill=N@E]... [--seed=N] [--epochs=N] [--partitions=N] "
               "[--slo=SPEC] [--out=FILE] "
               "[--why partition=P [epoch=E] | --storm]\n");
  return 2;
}

void print_chain(const rfh::TimelineQuery& query,
                 std::span<const rfh::TimelineRecord> chain) {
  const bool truncated =
      !chain.empty() && query.chain_truncated(chain.back().id);
  std::fputs(rfh::render_chain(chain, truncated).c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string case_path;
  std::string plan_path;
  std::string slo_spec;
  std::string out_path;
  std::uint64_t seed = 0;
  bool seed_set = false;
  rfh::Epoch epochs = 0;
  std::uint32_t partitions = 0;
  rfh::FaultPlan kills;
  bool why_mode = false;
  bool storm_mode = false;
  std::uint32_t why_partition = 0;
  bool why_partition_set = false;
  rfh::Epoch why_epoch = rfh::TimelineQuery::kAnyEpoch;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (consume(arg, "--case=", value)) {
      case_path = value;
    } else if (consume(arg, "--fault-plan=", value)) {
      plan_path = value;
    } else if (consume(arg, "--slo=", value)) {
      slo_spec = value;
    } else if (consume(arg, "--out=", value)) {
      out_path = value;
    } else if (consume(arg, "--seed=", value)) {
      if (!rfh::parse_uint(value, seed)) {
        return usage("--seed expects an integer");
      }
      seed_set = true;
    } else if (consume(arg, "--epochs=", value)) {
      if (!rfh::parse_uint(value, epochs) || epochs == 0) {
        return usage("--epochs expects a positive 32-bit integer");
      }
    } else if (consume(arg, "--partitions=", value)) {
      if (!rfh::parse_uint(value, partitions) || partitions == 0) {
        return usage("--partitions expects a positive 32-bit integer");
      }
    } else if (consume(arg, "--kill=", value)) {
      const std::optional<rfh::FaultEvent> crash = rfh::parse_kill(value);
      if (!crash) return usage(std::string(rfh::kKillError).c_str());
      kills.add(*crash);
    } else if (std::strcmp(arg, "--why") == 0) {
      why_mode = true;
    } else if (std::strcmp(arg, "--storm") == 0) {
      storm_mode = true;
    } else if (consume(arg, "partition=", value)) {
      if (!why_mode || !rfh::parse_uint(value, why_partition)) {
        return usage("partition=P belongs after --why and expects a "
                     "32-bit integer");
      }
      why_partition_set = true;
    } else if (consume(arg, "epoch=", value)) {
      if (!why_mode || !rfh::parse_uint(value, why_epoch)) {
        return usage("epoch=E belongs after --why and expects a 32-bit "
                     "integer");
      }
    } else {
      return usage((std::string("unknown argument '") + arg + "'").c_str());
    }
  }
  if (why_mode && !why_partition_set) {
    return usage("--why needs partition=P");
  }
  if (why_mode && storm_mode) return usage("--why and --storm conflict");
  if (!case_path.empty() && !plan_path.empty()) {
    return usage("--case and --fault-plan conflict");
  }

  // --- assemble the scenario --------------------------------------------
  rfh::Scenario scenario;
  if (!case_path.empty()) {
    const rfh::CheckCase::ParseResult parsed = rfh::CheckCase::load(case_path);
    if (!parsed.ok) {
      return usage(("--case: " + parsed.error).c_str());
    }
    scenario = parsed.value.to_scenario();
  } else {
    scenario = rfh::Scenario::paper_random_query();
    rfh::FaultPlan::ParseResult plan =
        plan_path.empty() ? rfh::FaultPlan::parse(kDefaultDrill)
                          : rfh::FaultPlan::parse_file(plan_path);
    if (!plan.ok) {
      return usage(("--fault-plan: " + plan.error).c_str());
    }
    // --kill alone replaces the built-in drill instead of stacking on it.
    if (!plan_path.empty() || kills.empty()) {
      scenario.fault_plan = std::move(plan.plan);
    }
  }
  for (const rfh::FaultEvent& crash : kills.events()) {
    scenario.fault_plan.add(crash);
  }
  if (seed_set) {
    scenario.sim.seed = seed;
    scenario.world.seed = seed;
  }
  if (epochs != 0) scenario.epochs = epochs;
  if (partitions != 0) scenario.sim.partitions = partitions;
  if (!slo_spec.empty()) {
    const rfh::SloParseResult parsed = rfh::parse_slo(slo_spec);
    if (!parsed.ok) return usage(("--slo: " + parsed.error).c_str());
    scenario.slo = parsed.spec;
  }

  // --- fly the scenario with the recorder attached ----------------------
  rfh::TimelineStore store(scenario.sim.partitions);
  const rfh::PolicyRun run = rfh::run_policy(
      scenario, rfh::PolicyKind::kRfh, rfh::FaultPlan{},
      rfh::RfhPolicy::Options{},
      /*trace_sink=*/nullptr, /*metrics=*/nullptr, /*profiler=*/nullptr,
      /*checker=*/nullptr, &store);

  std::printf("# %u epochs, %llu events recorded (%zu retained, %zu "
              "sampled from %llu evicted)\n",
              scenario.epochs,
              static_cast<unsigned long long>(store.total_recorded()),
              store.snapshot().size(), store.sampled(),
              static_cast<unsigned long long>(store.evicted()));
  if (scenario.slo.enabled()) {
    std::printf("# slo breaches: %zu\n", run.slo_breaches.size());
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "rfh_blackbox: cannot open '%s' for writing\n",
                   out_path.c_str());
      return 2;
    }
    store.dump_jsonl(out);
    std::printf("# flight record written to %s\n", out_path.c_str());
  }

  const rfh::TimelineQuery query(store);

  if (why_mode) {
    const rfh::PartitionId p{why_partition};
    const rfh::Epoch at = why_epoch;
    const std::vector<rfh::TimelineRecord> chain = query.why(p, at);
    if (chain.empty()) {
      std::printf("partition %u has no recorded history", why_partition);
      if (at != rfh::TimelineQuery::kAnyEpoch) {
        std::printf(" at or before epoch %u", at);
      }
      std::printf("\n");
      return 1;
    }
    std::printf("\n=== why: partition %u", why_partition);
    if (at != rfh::TimelineQuery::kAnyEpoch) std::printf(" @ epoch %u", at);
    std::printf(" ===\n");
    print_chain(query, chain);
    // The lifecycle gives the chain its surroundings: every copy the
    // partition grew and why, every promotion, every refused action.
    // The recorder bounds this list: the partition's ring (at most
    // TimelineStore::kMaxRing records) plus its sampled evictions.
    const std::vector<rfh::TimelineRecord> history =
        query.partition_history(p, at);
    std::printf("\n--- lifecycle of partition %u: %zu records ---\n",
                why_partition, history.size());
    for (const rfh::TimelineRecord& rec : history) {
      std::printf("epoch %4u  %s\n", rec.epoch,
                  rfh::describe_record(rec).c_str());
    }
    return 0;
  }

  if (storm_mode) {
    // The storm epoch: where the most migrations landed in the record.
    constexpr std::uint8_t kMigration =
        rfh::event_type_index<rfh::MigrationExecuted>();
    std::map<rfh::Epoch, std::uint32_t> migrations_at;
    for (const rfh::TimelineRecord& rec : query.records()) {
      if (rec.type == kMigration) ++migrations_at[rec.epoch];
    }
    if (migrations_at.empty()) {
      std::printf("no migrations in the record — no storm to explain\n");
      return 1;
    }
    auto storm = migrations_at.begin();
    for (auto it = migrations_at.begin(); it != migrations_at.end(); ++it) {
      if (it->second > storm->second) storm = it;
    }
    std::printf("\n=== storm: %u migrations at epoch %u ===\n", storm->second,
                storm->first);
    // One tree per distinct root cause; count how many migrations each
    // root accounts for instead of repeating near-identical chains.
    std::map<std::uint64_t, std::uint32_t> by_root;
    std::map<std::uint64_t, std::vector<rfh::TimelineRecord>> chain_of;
    for (const rfh::TimelineRecord& rec : query.at_epoch(storm->first)) {
      if (rec.type != kMigration) continue;
      std::vector<rfh::TimelineRecord> chain = query.chain(rec.id);
      const std::uint64_t root = chain.empty() ? 0 : chain.front().id;
      if (++by_root[root] == 1) chain_of[root] = std::move(chain);
    }
    for (const auto& [root, count] : by_root) {
      std::printf("\n%u migration(s) traced to:\n", count);
      print_chain(query, chain_of[root]);
    }
    return 0;
  }

  // --- default: summarize the record ------------------------------------
  std::map<std::string, std::uint32_t> by_type;
  for (const rfh::TimelineRecord& rec : query.records()) {
    ++by_type[std::string(
        rfh::event_index_name(static_cast<std::size_t>(rec.type)))];
  }
  std::printf("\nretained records by type:\n");
  for (const auto& [name, count] : by_type) {
    std::printf("  %-22s %u\n", name.c_str(), count);
  }
  for (const rfh::SloBreachRecord& b : run.slo_breaches) {
    std::printf("slo breach: epoch %u %s observed=%.4g target=%.4g\n",
                b.epoch, rfh::slo_objective_name(b.objective), b.observed,
                b.target);
  }
  std::printf("\n(ask a question: --why partition=P [epoch=E], or --storm)\n");
  return 0;
}
