#include "core/serialize.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/check.h"
#include "util/json.h"

namespace tap::core {

namespace {

/// Minimal recursive-descent parser for the subset we emit.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    TAP_CHECK(pos_ < text_.size() && text_[pos_] == c)
        << "plan JSON: expected '" << c << "' at offset " << pos_;
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// A string body as util::json_escape writes it: \" \\ \b \f \n \r
  /// \t, and \u00XX for the other control characters.
  std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = unescape(text_[pos_++]);
      out.push_back(c);
    }
    TAP_CHECK(pos_ < text_.size()) << "plan JSON: unterminated string";
    ++pos_;  // closing quote
    return out;
  }

  long long int_value() {
    skip_ws();
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    TAP_CHECK(pos_ > start) << "plan JSON: expected integer at " << start;
    return std::stoll(text_.substr(start, pos_ - start));
  }

  double double_value() {
    skip_ws();
    std::size_t start = pos_;
    auto is_num_char = [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
             c == '+' || c == '.' || c == 'e' || c == 'E' || c == 'i' ||
             c == 'n' || c == 'f';  // inf: kInvalidPlanCost round-trips
    };
    while (pos_ < text_.size() && is_num_char(text_[pos_])) ++pos_;
    TAP_CHECK(pos_ > start) << "plan JSON: expected number at " << start;
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    TAP_CHECK(end == tok.c_str() + tok.size())
        << "plan JSON: bad number '" << tok << "'";
    return v;
  }

  void done() {
    skip_ws();
    TAP_CHECK_EQ(pos_, text_.size()) << "plan JSON: trailing content";
  }

 private:
  /// The character escape sequence `\<c>...` stands for (consuming a
  /// \u escape's four hex digits).
  char unescape(char c) {
    switch (c) {
      case 'b':
        return '\b';
      case 'f':
        return '\f';
      case 'n':
        return '\n';
      case 'r':
        return '\r';
      case 't':
        return '\t';
      case 'u': {
        TAP_CHECK(pos_ + 4 <= text_.size()) << "plan JSON: short \\u escape";
        const std::string hex = text_.substr(pos_, 4);
        char* end = nullptr;
        const long code = std::strtol(hex.c_str(), &end, 16);
        TAP_CHECK(end == hex.c_str() + 4 && code >= 0 && code < 0x80)
            << "plan JSON: unsupported escape \\u" << hex;
        pos_ += 4;
        return static_cast<char>(code);
      }
      default:  // '"', '\\', '/'
        return c;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string plan_to_json(const ir::TapGraph& tg,
                         const sharding::ShardingPlan& plan) {
  TAP_CHECK_EQ(plan.choice.size(), tg.num_nodes());
  std::ostringstream os;
  os << "{\n  \"mesh\": [" << plan.dp_replicas << ", " << plan.num_shards
     << "],\n  \"assignments\": {\n";
  bool first = true;
  for (const auto& n : tg.nodes()) {
    if (!n.has_weight()) continue;
    auto pats = sharding::patterns_for(tg, n.id, plan.num_shards,
                                       plan.dp_replicas);
    int c = plan.choice[static_cast<std::size_t>(n.id)];
    TAP_CHECK(c >= 0 && c < static_cast<int>(pats.size()))
        << "plan has no valid pattern for '" << n.name << "'";
    if (!first) os << ",\n";
    first = false;
    os << "    \"" << util::json_escape(n.name) << "\": \""
       << util::json_escape(pats[static_cast<std::size_t>(c)].name) << "\"";
  }
  os << "\n  }\n}\n";
  return os.str();
}

sharding::ShardingPlan plan_from_json(const ir::TapGraph& tg,
                                      const std::string& json) {
  Parser p(json);
  p.expect('{');

  sharding::ShardingPlan plan;
  bool have_mesh = false;
  bool first_key = true;
  while (true) {
    if (!first_key && !p.try_consume(',')) break;
    first_key = false;
    std::string key = p.string_value();
    p.expect(':');
    if (key == "mesh") {
      p.expect('[');
      plan.dp_replicas = static_cast<int>(p.int_value());
      p.expect(',');
      plan.num_shards = static_cast<int>(p.int_value());
      p.expect(']');
      TAP_CHECK_GE(plan.dp_replicas, 1);
      TAP_CHECK_GE(plan.num_shards, 1);
      have_mesh = true;
      plan.choice.assign(tg.num_nodes(), 0);
    } else if (key == "assignments") {
      TAP_CHECK(have_mesh) << "plan JSON: \"mesh\" must precede "
                              "\"assignments\"";
      p.expect('{');
      bool first_entry = true;
      while (true) {
        if (first_entry ? p.try_consume('}') : !p.try_consume(',')) break;
        first_entry = false;
        std::string node = p.string_value();
        p.expect(':');
        std::string pattern = p.string_value();
        ir::GraphNodeId id = tg.find(node);
        TAP_CHECK(id != ir::kInvalidGraphNode)
            << "plan references unknown GraphNode '" << node << "'";
        auto pats = sharding::patterns_for(tg, id, plan.num_shards,
                                           plan.dp_replicas);
        bool resolved = false;
        for (std::size_t i = 0; i < pats.size(); ++i) {
          if (pats[i].name == pattern) {
            plan.choice[static_cast<std::size_t>(id)] =
                static_cast<int>(i);
            resolved = true;
          }
        }
        TAP_CHECK(resolved) << "pattern '" << pattern
                            << "' not applicable to '" << node
                            << "' under mesh " << plan.mesh().to_string();
      }
      if (first_entry) continue;  // consumed '}' of an empty object
      p.expect('}');
    } else {
      TAP_CHECK(false) << "plan JSON: unknown key '" << key << "'";
    }
  }
  p.expect('}');
  p.done();
  TAP_CHECK(have_mesh) << "plan JSON: missing \"mesh\"";
  TAP_CHECK(!plan.choice.empty()) << "plan JSON: missing \"assignments\"";
  return plan;
}

namespace {

/// Shortest exact representation: 17 significant digits round-trip every
/// finite double bit-identically through strtod.
std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string plan_record_to_json(const ir::TapGraph& tg,
                                const PlanRecord& record) {
  TAP_CHECK_EQ(record.plan.choice.size(), tg.num_nodes())
      << "record does not cover the graph";
  std::ostringstream os;
  os << "{\n  \"version\": " << kPlanRecordVersion << ",\n  \"mesh\": ["
     << record.plan.dp_replicas << ", " << record.plan.num_shards
     << "],\n  \"choice\": [";
  for (std::size_t i = 0; i < record.plan.choice.size(); ++i)
    os << (i ? ", " : "") << record.plan.choice[i];
  os << "],\n  \"cost\": [" << exact(record.cost.forward_comm_s) << ", "
     << exact(record.cost.backward_comm_s) << ", "
     << exact(record.cost.overlappable_comm_s) << ", "
     << record.cost.comm_bytes << "],\n  \"stats\": ["
     << record.stats.candidate_plans << ", " << record.stats.valid_plans
     << ", " << record.stats.nodes_visited << ", "
     << record.stats.cost_queries << "],\n  \"timings\": [";
  for (std::size_t i = 0; i < record.timings.size(); ++i) {
    os << (i ? ", " : "") << "[\"" << util::json_escape(record.timings[i].pass)
       << "\", " << exact(record.timings[i].seconds) << "]";
  }
  os << "],\n  \"search_seconds\": " << exact(record.search_seconds)
     << "\n}\n";
  return os.str();
}

PlanRecord plan_record_from_json(const ir::TapGraph& tg,
                                 const std::string& json) {
  Parser p(json);
  PlanRecord record;
  p.expect('{');

  // Version gate FIRST: a mismatch (or any malformation before it) must
  // reject the payload before anything else is interpreted.
  TAP_CHECK(p.string_value() == "version")
      << "plan record: \"version\" must be the first key";
  p.expect(':');
  const long long version = p.int_value();
  TAP_CHECK_EQ(version, kPlanRecordVersion)
      << "plan record written by incompatible code";

  auto key = [&](const char* want) {
    p.expect(',');
    TAP_CHECK(p.string_value() == want)
        << "plan record: expected key \"" << want << "\"";
    p.expect(':');
  };

  key("mesh");
  p.expect('[');
  record.plan.dp_replicas = static_cast<int>(p.int_value());
  p.expect(',');
  record.plan.num_shards = static_cast<int>(p.int_value());
  p.expect(']');
  TAP_CHECK_GE(record.plan.dp_replicas, 1);
  TAP_CHECK_GE(record.plan.num_shards, 1);

  key("choice");
  p.expect('[');
  if (!p.try_consume(']')) {
    do {
      record.plan.choice.push_back(static_cast<int>(p.int_value()));
    } while (p.try_consume(','));
    p.expect(']');
  }
  TAP_CHECK_EQ(record.plan.choice.size(), tg.num_nodes())
      << "plan record does not match the graph";
  for (const auto& n : tg.nodes()) {
    const int c = record.plan.choice[static_cast<std::size_t>(n.id)];
    const auto pats = sharding::patterns_for(
        tg, n.id, record.plan.num_shards, record.plan.dp_replicas);
    TAP_CHECK(c >= 0 && c < static_cast<int>(pats.size()))
        << "plan record: choice " << c << " out of range for '" << n.name
        << "'";
  }

  key("cost");
  p.expect('[');
  record.cost.forward_comm_s = p.double_value();
  p.expect(',');
  record.cost.backward_comm_s = p.double_value();
  p.expect(',');
  record.cost.overlappable_comm_s = p.double_value();
  p.expect(',');
  record.cost.comm_bytes = p.int_value();
  p.expect(']');

  key("stats");
  p.expect('[');
  record.stats.candidate_plans = p.int_value();
  p.expect(',');
  record.stats.valid_plans = p.int_value();
  p.expect(',');
  record.stats.nodes_visited = p.int_value();
  p.expect(',');
  record.stats.cost_queries = p.int_value();
  p.expect(']');

  key("timings");
  p.expect('[');
  if (!p.try_consume(']')) {
    do {
      p.expect('[');
      PassTiming t;
      t.pass = p.string_value();
      p.expect(',');
      t.seconds = p.double_value();
      p.expect(']');
      record.timings.push_back(std::move(t));
    } while (p.try_consume(','));
    p.expect(']');
  }

  key("search_seconds");
  record.search_seconds = p.double_value();

  p.expect('}');
  p.done();
  return record;
}

}  // namespace tap::core
