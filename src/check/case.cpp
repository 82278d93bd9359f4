#include "check/case.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/parse.h"

namespace rfh {

namespace {

constexpr std::string_view kSchema = "rfh-check-case/1";

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

/// Tokenizing parser for one flat JSON object of string / number / bool
/// values. Nested containers are rejected — the case format never needs
/// them, and refusing keeps the grammar unambiguous.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view text) : text_(text) {}

  /// Parse into key -> raw value; strings are unescaped, numbers and
  /// booleans are kept as their literal spelling.
  bool parse(std::map<std::string, std::string>& fields,
             std::map<std::string, bool>& is_string, std::string& error) {
    skip_ws();
    if (!consume('{')) return fail(error, "expected '{'");
    skip_ws();
    if (consume('}')) return finish(error);
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (!consume(':')) return fail(error, "expected ':' after key");
      skip_ws();
      std::string value;
      bool quoted = false;
      if (!parse_value(value, quoted, error)) return false;
      if (fields.contains(key)) return fail(error, "duplicate key '" + key + "'");
      fields.emplace(key, std::move(value));
      is_string.emplace(key, quoted);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return finish(error);
      return fail(error, "expected ',' or '}'");
    }
  }

 private:
  bool finish(std::string& error) {
    skip_ws();
    if (pos_ != text_.size()) return fail(error, "trailing characters");
    return true;
  }

  bool fail(std::string& error, std::string message) {
    error = "offset " + std::to_string(pos_) + ": " + std::move(message);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out, std::string& error) {
    if (!consume('"')) return fail(error, "expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        default:
          return fail(error, std::string("unsupported escape '\\") + esc + "'");
      }
    }
    return fail(error, "unterminated string");
  }

  bool parse_value(std::string& out, bool& quoted, std::string& error) {
    if (pos_ < text_.size() && text_[pos_] == '"') {
      quoted = true;
      return parse_string(out, error);
    }
    quoted = false;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ',' || c == '}' || c == ' ' || c == '\t' || c == '\n' ||
          c == '\r') {
        break;
      }
      if (c == '{' || c == '[') return fail(error, "nested values unsupported");
      ++pos_;
    }
    if (pos_ == start) return fail(error, "empty value");
    out.assign(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* workload_kind_name(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::kUniform: return "uniform";
    case WorkloadKind::kFlashCrowd: return "flash";
    case WorkloadKind::kHotspotShift: return "hotspot";
    case WorkloadKind::kStream: return "stream";
  }
  return "?";
}

Scenario CheckCase::to_scenario() const {
  Scenario s = Scenario::paper_random_query();
  s.workload = workload;
  s.epochs = epochs;
  s.zipf_exponent = zipf;
  s.fault_plan = fault_plan;
  s.world = WorldOptions{};
  s.world.rooms_per_datacenter = rooms_per_datacenter;
  s.world.racks_per_room = racks_per_room;
  s.world.servers_per_rack = servers_per_rack;
  s.world.seed = seed;
  s.sim = SimConfig{};
  s.sim.seed = seed;
  s.sim.partitions = partitions;
  s.sim.alpha = alpha;
  s.sim.alpha_weights_history = alpha_weights_history;
  s.sim.beta = beta;
  s.sim.gamma = gamma;
  s.sim.delta = delta;
  s.sim.mu = mu;
  s.sim.storage_limit = phi;
  s.sim.failure_rate = failure_rate;
  s.sim.min_availability = min_availability;
  s.sim.redundancy = redundancy;
  s.sim.ec_k = ec_k;
  s.sim.ec_m = ec_m;
  return s;
}

std::string CheckCase::to_json() const {
  std::string out = "{\n";
  const auto field = [&](const char* key, const std::string& value,
                         bool is_str, bool last = false) {
    out += "  ";
    append_json_string(out, key);
    out += ": ";
    if (is_str) {
      append_json_string(out, value);
    } else {
      out += value;
    }
    if (!last) out += ',';
    out += '\n';
  };
  field("schema", std::string(kSchema), true);
  field("seed", std::to_string(seed), false);
  field("rooms_per_datacenter", std::to_string(rooms_per_datacenter), false);
  field("racks_per_room", std::to_string(racks_per_room), false);
  field("servers_per_rack", std::to_string(servers_per_rack), false);
  field("partitions", std::to_string(partitions), false);
  field("epochs", std::to_string(epochs), false);
  field("workload", workload_kind_name(workload), true);
  field("zipf", format_double(zipf), false);
  field("alpha", format_double(alpha), false);
  field("alpha_weights_history", alpha_weights_history ? "true" : "false",
        false);
  field("beta", format_double(beta), false);
  field("gamma", format_double(gamma), false);
  field("delta", format_double(delta), false);
  field("mu", format_double(mu), false);
  field("phi", format_double(phi), false);
  field("failure_rate", format_double(failure_rate), false);
  field("min_availability", format_double(min_availability), false);
  // Emitted only when non-default so every pre-EC corpus file stays a
  // byte-identical round-trip.
  if (redundancy != RedundancyMode::kReplica) {
    SimConfig spec;
    spec.redundancy = redundancy;
    spec.ec_k = ec_k;
    spec.ec_m = ec_m;
    field("redundancy", redundancy_spec(spec), true);
  }
  field("fault_plan", fault_plan.empty() ? std::string() : fault_plan.serialize(),
        true, /*last=*/true);
  out += "}\n";
  return out;
}

CheckCase::ParseResult CheckCase::from_json(std::string_view text) {
  ParseResult result;
  std::map<std::string, std::string> fields;
  std::map<std::string, bool> is_string;
  FlatJsonParser parser(text);
  if (!parser.parse(fields, is_string, result.error)) return result;

  const auto fail = [&](std::string message) {
    result.ok = false;
    result.error = std::move(message);
    return result;
  };

  const auto it = fields.find("schema");
  if (it == fields.end() || it->second != kSchema) {
    return fail("missing or unknown schema (want \"" + std::string(kSchema) +
                "\")");
  }

  CheckCase& c = result.value;
  for (const auto& [key, raw] : fields) {
    const bool quoted = is_string.at(key);
    const auto want_plain = [&](const char* what) {
      return !quoted ? std::string()
                     : "field '" + key + "' expects a " + what +
                           ", got a string";
    };
    std::string err;
    if (key == "schema") {
      continue;
    } else if (key == "seed" || key == "rooms_per_datacenter" ||
               key == "racks_per_room" || key == "servers_per_rack" ||
               key == "partitions" || key == "epochs") {
      err = want_plain("non-negative integer");
      std::uint64_t v = 0;
      if (err.empty() && !parse_uint(raw, v)) {
        err = "field '" + key + "' expects an integer, got '" + raw + "'";
      }
      if (err.empty()) {
        if (key == "seed") c.seed = v;
        else if (key == "rooms_per_datacenter")
          c.rooms_per_datacenter = static_cast<std::uint32_t>(v);
        else if (key == "racks_per_room")
          c.racks_per_room = static_cast<std::uint32_t>(v);
        else if (key == "servers_per_rack")
          c.servers_per_rack = static_cast<std::uint32_t>(v);
        else if (key == "partitions") c.partitions = static_cast<std::uint32_t>(v);
        else c.epochs = static_cast<Epoch>(v);
      }
    } else if (key == "zipf" || key == "alpha" || key == "beta" ||
               key == "gamma" || key == "delta" || key == "mu" ||
               key == "phi" || key == "failure_rate" ||
               key == "min_availability") {
      err = want_plain("number");
      double v = 0.0;
      if (err.empty() && !parse_finite(raw, v)) {
        err = "field '" + key + "' expects a number, got '" + raw + "'";
      }
      if (err.empty()) {
        if (key == "zipf") c.zipf = v;
        else if (key == "alpha") c.alpha = v;
        else if (key == "beta") c.beta = v;
        else if (key == "gamma") c.gamma = v;
        else if (key == "delta") c.delta = v;
        else if (key == "mu") c.mu = v;
        else if (key == "phi") c.phi = v;
        else if (key == "failure_rate") c.failure_rate = v;
        else c.min_availability = v;
      }
    } else if (key == "alpha_weights_history") {
      if (quoted || (raw != "true" && raw != "false")) {
        err = "field 'alpha_weights_history' expects true or false";
      } else {
        c.alpha_weights_history = raw == "true";
      }
    } else if (key == "workload") {
      if (!quoted) {
        err = "field 'workload' expects a string";
      } else if (raw == "uniform") {
        c.workload = WorkloadKind::kUniform;
      } else if (raw == "flash") {
        c.workload = WorkloadKind::kFlashCrowd;
      } else if (raw == "hotspot") {
        c.workload = WorkloadKind::kHotspotShift;
      } else if (raw == "stream") {
        c.workload = WorkloadKind::kStream;
      } else {
        err = "unknown workload '" + raw + "'";
      }
    } else if (key == "redundancy") {
      if (!quoted) {
        err = "field 'redundancy' expects a string";
      } else {
        SimConfig spec;
        if (!parse_redundancy(raw, spec, err)) {
          // err already set: an unsupported mode is a hard parse error,
          // never a silent fall-back to replica.
        } else {
          c.redundancy = spec.redundancy;
          c.ec_k = spec.ec_k;
          c.ec_m = spec.ec_m;
        }
      }
    } else if (key == "fault_plan") {
      if (!quoted) {
        err = "field 'fault_plan' expects a string";
      } else if (!raw.empty()) {
        FaultPlan::ParseResult plan = FaultPlan::parse(raw);
        if (!plan.ok) {
          err = "fault_plan: " + plan.error;
        } else {
          c.fault_plan = std::move(plan.plan);
        }
      }
    } else {
      err = "unknown field '" + key + "'";
    }
    if (!err.empty()) return fail(std::move(err));
  }

  // Sanity floors: a zero-sized world or run is never a meaningful case.
  if (c.epochs == 0) return fail("field 'epochs' must be positive");
  if (c.rooms_per_datacenter == 0 || c.racks_per_room == 0 ||
      c.servers_per_rack == 0) {
    return fail("world shape fields must be positive");
  }
  // The Table I ranges: the same rules the CLI applies to its flags.
  if (std::string error = validate(c.to_scenario().sim); !error.empty()) {
    return fail(std::move(error));
  }

  result.ok = true;
  return result;
}

CheckCase::ParseResult CheckCase::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult result;
    result.error = "cannot open '" + path + "'";
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

bool CheckCase::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace rfh
