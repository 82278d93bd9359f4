#include "obs/events.h"

#include <array>
#include <utility>

namespace rfh {

const char* rule_name(DecisionRule rule) noexcept {
  switch (rule) {
    case DecisionRule::kNone: return "none";
    case DecisionRule::kAvailabilityFloor: return "availability_floor";
    case DecisionRule::kOverloadHub: return "overload_hub";
    case DecisionRule::kOverloadForced: return "overload_forced";
    case DecisionRule::kOverloadLocal: return "overload_local";
    case DecisionRule::kMigrationBenefit: return "migration_benefit";
    case DecisionRule::kSuicideCold: return "suicide_cold";
  }
  return "?";
}

const char* rule_inequality(DecisionRule rule) noexcept {
  switch (rule) {
    case DecisionRule::kNone: return "";
    case DecisionRule::kAvailabilityFloor: return "r < r_min (Eq. 14)";
    case DecisionRule::kOverloadHub: return "tr >= beta*q_bar (Eq. 12)";
    case DecisionRule::kOverloadForced:
      return "tr >= beta*q_bar, no hub >= gamma*q_bar (Eq. 12, forced)";
    case DecisionRule::kOverloadLocal:
      return "tr >= beta*q_bar, demand local (Eq. 12, local)";
    case DecisionRule::kMigrationBenefit:
      return "tr_hub - tr_cold >= mu*tr_mean (Eq. 16)";
    case DecisionRule::kSuicideCold: return "tr <= delta*q_bar (Eq. 15)";
  }
  return "";
}

const char* drop_reason_name(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kBandwidth: return "bandwidth";
    case DropReason::kStorageCap: return "storage_cap";
    case DropReason::kNodeCap: return "node_cap";
    case DropReason::kDeadTarget: return "dead_target";
    case DropReason::kInvalid: return "invalid";
    case DropReason::kZoneDiversity: return "zone_diversity";
    case DropReason::kUnknown: return "unknown";
  }
  return "?";
}

const char* action_kind_name(ActionKind kind) noexcept {
  switch (kind) {
    case ActionKind::kReplicate: return "replicate";
    case ActionKind::kMigrate: return "migrate";
    case ActionKind::kSuicide: return "suicide";
  }
  return "?";
}

namespace {

struct NameVisitor {
  const char* operator()(const ReplicaAdded&) const { return "ReplicaAdded"; }
  const char* operator()(const MigrationExecuted&) const {
    return "MigrationExecuted";
  }
  const char* operator()(const Suicide&) const { return "Suicide"; }
  const char* operator()(const ActionDropped&) const {
    return "ActionDropped";
  }
  const char* operator()(const ServerFailed&) const { return "ServerFailed"; }
  const char* operator()(const ServerRecovered&) const {
    return "ServerRecovered";
  }
  const char* operator()(const PrimaryPromoted&) const {
    return "PrimaryPromoted";
  }
  const char* operator()(const Reseeded&) const { return "Reseeded"; }
  const char* operator()(const LinkFailed&) const { return "LinkFailed"; }
  const char* operator()(const LinkRestored&) const { return "LinkRestored"; }
  const char* operator()(const FaultInjected&) const {
    return "FaultInjected";
  }
  const char* operator()(const EpochCompleted&) const {
    return "EpochCompleted";
  }
  const char* operator()(const PhaseSpan&) const { return "PhaseSpan"; }
  const char* operator()(const StreamEpochSummary&) const {
    return "StreamEpochSummary";
  }
  const char* operator()(const QueueSaturated&) const {
    return "QueueSaturated";
  }
  const char* operator()(const TrafficShift&) const { return "TrafficShift"; }
  const char* operator()(const RuleFired&) const { return "RuleFired"; }
  const char* operator()(const SloBreach&) const { return "SloBreach"; }
  const char* operator()(const StatsFrozen&) const { return "StatsFrozen"; }
  const char* operator()(const StripeLost&) const { return "StripeLost"; }
  const char* operator()(const StripeReconstructed&) const {
    return "StripeReconstructed";
  }
};

/// One default-constructed alternative per index, so names and indices
/// can be mapped without emitting real events.
template <std::size_t... Is>
std::array<const char*, sizeof...(Is)> make_index_names(
    std::index_sequence<Is...>) {
  return {event_name(Event(std::in_place_index<Is>))...};
}

}  // namespace

const char* event_name(const Event& event) noexcept {
  return std::visit(NameVisitor{}, event);
}

const char* event_index_name(std::size_t index) noexcept {
  static const auto names =
      make_index_names(std::make_index_sequence<std::variant_size_v<Event>>{});
  return index < names.size() ? names[index] : "?";
}

Epoch event_epoch(const Event& event) noexcept {
  return std::visit([](const auto& e) { return e.epoch; }, event);
}

}  // namespace rfh
