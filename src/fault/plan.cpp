#include "fault/plan.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "common/parse.h"

namespace rfh {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kDatacenterOutage: return "outage";
    case FaultKind::kLinkDown: return "linkdown";
    case FaultKind::kLinkFlap: return "flap";
    case FaultKind::kChurn: return "churn";
    case FaultKind::kFlashCrowd: return "flashcrowd";
    case FaultKind::kZoneOutage: return "zoneoutage";
    case FaultKind::kStaleStats: return "stalestats";
  }
  return "?";
}

namespace {

bool kind_from_name(std::string_view name, FaultKind& out) {
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == fault_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string validate_fault_event(const FaultEvent& e) {
  const auto windowed = [&]() -> std::string {
    if (e.until <= e.at) return "field 'until' must be greater than 'at'";
    if (e.period == 0) return "field 'period' expects a positive integer";
    return "";
  };
  switch (e.kind) {
    case FaultKind::kCrash:
    case FaultKind::kRecover:
      if ((e.count == 0) == e.servers.empty()) {
        return "exactly one of 'count' or 'servers' is required";
      }
      return "";
    case FaultKind::kDatacenterOutage:
      if (!e.dc.valid()) return "field 'dc' is required";
      return "";
    case FaultKind::kLinkDown:
      if (!e.link_a.valid() || !e.link_b.valid()) {
        return "fields 'a' and 'b' are required";
      }
      if (e.link_a == e.link_b) return "fields 'a' and 'b' must differ";
      if (e.restore_at != 0 && e.restore_at <= e.at) {
        return "field 'restore_at' must be greater than 'at'";
      }
      return "";
    case FaultKind::kLinkFlap: {
      if (!e.link_a.valid() || !e.link_b.valid()) {
        return "fields 'a' and 'b' are required";
      }
      if (e.link_a == e.link_b) return "fields 'a' and 'b' must differ";
      const std::string w = windowed();
      if (!w.empty()) return w;
      if (e.down == 0 || e.down > e.period) {
        return "field 'down' must be in [1, period]";
      }
      return "";
    }
    case FaultKind::kChurn: {
      const std::string w = windowed();
      if (!w.empty()) return w;
      if (e.kill == 0) return "field 'kill' expects a positive integer";
      return "";
    }
    case FaultKind::kFlashCrowd:
      if (e.duration == 0) {
        return "field 'duration' expects a positive integer";
      }
      if (!(e.factor > 0.0)) return "field 'factor' must be positive";
      return "";
    case FaultKind::kZoneOutage:
      if (e.zone == kNoZone) return "field 'zone' is required";
      return "";
    case FaultKind::kStaleStats:
      if (e.until <= e.at) return "field 'until' must be greater than 'at'";
      if ((e.count == 0) == e.servers.empty()) {
        return "exactly one of 'count' or 'servers' is required";
      }
      return "";
  }
  return "unknown event kind";
}

void FaultPlan::add(const FaultEvent& event) {
  const std::string error = validate_fault_event(event);
  RFH_ASSERT_MSG(error.empty(), error.c_str());
  events_.push_back(event);
}

Epoch FaultPlan::horizon() const noexcept {
  Epoch horizon = 0;
  for (const FaultEvent& e : events_) {
    Epoch last = e.at;
    switch (e.kind) {
      case FaultKind::kDatacenterOutage:
      case FaultKind::kZoneOutage:
        if (e.recover_after != 0) last = e.at + e.recover_after;
        break;
      case FaultKind::kLinkDown:
        if (e.restore_at != 0) last = e.restore_at;
        break;
      case FaultKind::kLinkFlap:
      case FaultKind::kChurn:
      case FaultKind::kStaleStats:
        last = e.until;
        break;
      case FaultKind::kFlashCrowd:
        last = e.at + e.duration;
        break;
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        break;
    }
    horizon = std::max(horizon, last);
  }
  return horizon;
}

std::string FaultPlan::serialize() const {
  std::string out = "# rfh-fault-plan/1\n";
  char buf[64];
  const auto field_u = [&](const char* key, std::uint64_t value) {
    std::snprintf(buf, sizeof buf, " %s=%llu", key,
                  static_cast<unsigned long long>(value));
    out += buf;
  };
  const auto field_f = [&](const char* key, double value) {
    std::snprintf(buf, sizeof buf, " %s=%.12g", key, value);
    out += buf;
  };
  const auto field_victims = [&](const FaultEvent& e) {
    if (!e.servers.empty()) {
      out += " servers=";
      for (std::size_t i = 0; i < e.servers.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(e.servers[i].value());
      }
    } else {
      field_u("count", e.count);
    }
  };
  for (const FaultEvent& e : events_) {
    out += fault_kind_name(e.kind);
    field_u("at", e.at);
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        field_victims(e);
        break;
      case FaultKind::kDatacenterOutage:
        field_u("dc", e.dc.value());
        if (e.recover_after != 0) field_u("recover_after", e.recover_after);
        break;
      case FaultKind::kLinkDown:
        field_u("a", e.link_a.value());
        field_u("b", e.link_b.value());
        if (e.restore_at != 0) field_u("restore_at", e.restore_at);
        break;
      case FaultKind::kLinkFlap:
        field_u("until", e.until);
        field_u("a", e.link_a.value());
        field_u("b", e.link_b.value());
        field_u("period", e.period);
        field_u("down", e.down);
        break;
      case FaultKind::kChurn:
        field_u("until", e.until);
        field_u("period", e.period);
        field_u("kill", e.kill);
        if (e.recover != 0) field_u("recover", e.recover);
        break;
      case FaultKind::kFlashCrowd:
        field_u("duration", e.duration);
        field_f("factor", e.factor);
        break;
      case FaultKind::kZoneOutage:
        field_u("zone", e.zone);
        if (e.recover_after != 0) field_u("recover_after", e.recover_after);
        break;
      case FaultKind::kStaleStats:
        field_u("until", e.until);
        field_victims(e);
        break;
    }
    out += '\n';
  }
  return out;
}

FaultPlan::ParseResult FaultPlan::parse(std::string_view text) {
  ParseResult result;
  int line_no = 0;
  const auto fail = [&](const std::string& message) {
    result.ok = false;
    result.error = "line " + std::to_string(line_no) + ": " + message;
    return result;
  };

  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;

    // Strip comments and surrounding whitespace.
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t' ||
                             line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty()) {
      if (eol == text.size()) break;
      continue;
    }

    // Tokenize on runs of spaces/tabs.
    std::vector<std::string_view> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      std::size_t j = i;
      while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
      if (j > i) tokens.push_back(line.substr(i, j - i));
      i = j;
    }

    FaultEvent event;
    if (!kind_from_name(tokens.front(), event.kind)) {
      return fail("unknown event kind '" + std::string(tokens.front()) +
                  "'");
    }
    bool saw_at = false;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const std::string_view token = tokens[t];
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) {
        return fail("expected key=value, got '" + std::string(token) + "'");
      }
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      const auto bad_field = [&](const char* expects) {
        return "field '" + std::string(key) + "' " + expects + " (got '" +
               std::string(value) + "')";
      };
      std::uint64_t u = 0;
      const auto want_u32 = [&](std::uint32_t& out,
                                bool positive) -> std::string {
        if (!parse_uint(value, u) || u > 0xFFFFFFFFull ||
            (positive && u == 0)) {
          return bad_field(positive ? "expects a positive integer"
                                    : "expects an integer");
        }
        out = static_cast<std::uint32_t>(u);
        return "";
      };
      const auto want_epoch = [&](Epoch& out,
                                  bool positive) -> std::string {
        std::uint32_t v = 0;
        const std::string err = want_u32(v, positive);
        if (err.empty()) out = v;
        return err;
      };
      std::string err;
      std::uint32_t idv = 0;
      if (key == "at") {
        err = want_epoch(event.at, false);
        saw_at = err.empty();
      } else if (key == "until") {
        err = want_epoch(event.until, true);
      } else if (key == "count") {
        err = want_u32(event.count, true);
      } else if (key == "servers") {
        std::size_t start = 0;
        const std::string list(value);
        while (start <= list.size()) {
          std::size_t comma = list.find(',', start);
          if (comma == std::string::npos) comma = list.size();
          const std::string_view item =
              std::string_view(list).substr(start, comma - start);
          if (!parse_uint(item, u) || u >= ServerId::kInvalidValue) {
            err = "field 'servers' expects a comma-separated id list "
                  "(got '" +
                  std::string(value) + "')";
            break;
          }
          event.servers.push_back(ServerId{static_cast<std::uint32_t>(u)});
          if (comma == list.size()) break;
          start = comma + 1;
        }
      } else if (key == "dc") {
        err = want_u32(idv, false);
        if (err.empty()) event.dc = DatacenterId{idv};
      } else if (key == "a") {
        err = want_u32(idv, false);
        if (err.empty()) event.link_a = DatacenterId{idv};
      } else if (key == "b") {
        err = want_u32(idv, false);
        if (err.empty()) event.link_b = DatacenterId{idv};
      } else if (key == "zone") {
        err = want_u32(event.zone, false);
      } else if (key == "recover_after") {
        err = want_epoch(event.recover_after, true);
      } else if (key == "restore_at") {
        err = want_epoch(event.restore_at, true);
      } else if (key == "period") {
        err = want_epoch(event.period, true);
      } else if (key == "down") {
        err = want_epoch(event.down, true);
      } else if (key == "kill") {
        err = want_u32(event.kill, true);
      } else if (key == "recover") {
        err = want_u32(event.recover, false);
      } else if (key == "duration") {
        err = want_epoch(event.duration, true);
      } else if (key == "factor") {
        if (!parse_finite(value, event.factor)) {
          err = bad_field("expects a number");
        }
      } else {
        err = "unknown field '" + std::string(key) + "'";
      }
      if (!err.empty()) return fail(err);
    }
    if (!saw_at) return fail("field 'at' is required");
    if (const std::string err = validate_fault_event(event); !err.empty()) {
      return fail(err);
    }
    result.plan.events_.push_back(event);
    if (eol == text.size()) break;
  }
  result.ok = true;
  return result;
}

FaultPlan::ParseResult FaultPlan::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseResult result;
    result.error = "cannot read fault plan '" + path + "'";
    return result;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

}  // namespace rfh
