// Extending the library: a user-defined replication policy.
//
// `PinnedPolicy` keeps exactly one copy of every partition in each of a
// fixed set of datacenters (a common compliance pattern: "one copy per
// jurisdiction"), demonstrating the ReplicationPolicy extension point the
// comparators and RFH itself are built on.
//
//   $ ./custom_policy
#include <cstdio>
#include <string_view>

#include "core/selection.h"
#include "harness/scenario.h"
#include "sim/engine.h"

namespace {

class PinnedPolicy final : public rfh::ReplicationPolicy {
 public:
  explicit PinnedPolicy(std::vector<rfh::DatacenterId> pinned)
      : pinned_(std::move(pinned)) {}

  [[nodiscard]] std::string_view name() const override { return "Pinned"; }

  [[nodiscard]] rfh::Actions decide(const rfh::PolicyContext& ctx) override {
    rfh::Actions actions;
    for (std::uint32_t pv = 0; pv < ctx.config.partitions; ++pv) {
      const rfh::PartitionId p{pv};
      if (!ctx.cluster.primary_of(p).valid()) continue;
      for (const rfh::DatacenterId dc : pinned_) {
        if (!ctx.cluster.hosts_in_dc(p, dc).empty()) continue;
        const rfh::ServerId target = rfh::select_server_erlang_b(ctx, dc, p);
        if (target.valid()) {
          actions.replications.push_back(rfh::ReplicateAction{p, target, {}});
          break;  // one copy per epoch per partition
        }
      }
    }
    return actions;
  }

 private:
  std::vector<rfh::DatacenterId> pinned_;
};

}  // namespace

int main() {
  const rfh::Scenario scenario = rfh::Scenario::paper_random_query();
  rfh::World world = rfh::make_world(scenario);

  // Pin one copy to the USA (A), Switzerland (F) and Japan (I).
  std::vector<rfh::DatacenterId> pinned{
      world.by_letter('A'), world.by_letter('F'), world.by_letter('I')};

  auto workload = rfh::make_workload(scenario, world);
  rfh::Simulation sim(std::move(world), scenario.sim, std::move(workload),
                      std::make_unique<PinnedPolicy>(pinned));

  for (rfh::Epoch e = 0; e < 50; ++e) sim.step();

  // Verify the pin: every partition has a copy in each pinned datacenter.
  std::uint32_t satisfied = 0;
  for (std::uint32_t pv = 0; pv < scenario.sim.partitions; ++pv) {
    bool all = true;
    for (const rfh::DatacenterId dc : pinned) {
      if (sim.cluster().hosts_in_dc(rfh::PartitionId{pv}, dc).empty()) {
        all = false;
      }
    }
    if (all) ++satisfied;
  }
  std::printf("after 50 epochs: %u/%u partitions satisfy the 3-region pin, "
              "%u total copies\n",
              satisfied, scenario.sim.partitions,
              sim.cluster().total_replicas());
  return 0;
}
