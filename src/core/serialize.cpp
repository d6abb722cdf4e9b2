#include "core/serialize.h"

#include <climits>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace tap::core {

using util::JsonValue;

namespace {

int int_value(const JsonValue& v, const char* what) {
  const std::int64_t i = v.as_int();
  TAP_CHECK(i >= INT_MIN && i <= INT_MAX)
      << what << " value " << i << " is out of range";
  return static_cast<int>(i);
}

/// The elements of an array that must hold exactly `n` of them.
const std::vector<JsonValue>& fixed_items(const JsonValue& v, std::size_t n,
                                          const char* what) {
  const std::vector<JsonValue>& items = v.items();
  TAP_CHECK_EQ(items.size(), n) << what << " must have " << n << " entries";
  return items;
}

JsonValue mesh_json(const sharding::ShardingPlan& plan) {
  JsonValue mesh = JsonValue::array();
  mesh.push_back(JsonValue::number(plan.dp_replicas));
  mesh.push_back(JsonValue::number(plan.num_shards));
  return mesh;
}

/// Reads [dp, tp] (both >= 1) into `plan`.
void read_mesh(const JsonValue& v, sharding::ShardingPlan* plan) {
  const std::vector<JsonValue>& dims = fixed_items(v, 2, "mesh");
  plan->dp_replicas = int_value(dims[0], "mesh");
  plan->num_shards = int_value(dims[1], "mesh");
  TAP_CHECK_GE(plan->dp_replicas, 1);
  TAP_CHECK_GE(plan->num_shards, 1);
}

}  // namespace

JsonValue plan_json(const ir::TapGraph& tg,
                    const sharding::ShardingPlan& plan) {
  TAP_CHECK_EQ(plan.choice.size(), tg.num_nodes());
  const sharding::PatternTable table(tg, plan.num_shards, plan.dp_replicas);
  JsonValue assignments = JsonValue::object();
  for (const auto& n : tg.nodes()) {
    if (!n.has_weight()) continue;
    const auto& pats = table.at(n.id);
    int c = plan.choice[static_cast<std::size_t>(n.id)];
    TAP_CHECK(c >= 0 && c < static_cast<int>(pats.size()))
        << "plan has no valid pattern for '" << n.name << "'";
    const std::string& pattern = pats[static_cast<std::size_t>(c)].name;
    assignments.set(n.name, JsonValue::string(pattern));
  }
  JsonValue doc = JsonValue::object();
  doc.set("mesh", mesh_json(plan));
  doc.set("assignments", std::move(assignments));
  return doc;
}

std::string plan_to_json(const ir::TapGraph& tg,
                         const sharding::ShardingPlan& plan) {
  return plan_json(tg, plan).dump();
}

sharding::ShardingPlan plan_from_json(const ir::TapGraph& tg,
                                      const JsonValue& doc) {
  const JsonValue* mesh = nullptr;
  const JsonValue* assignments = nullptr;
  for (const auto& [key, value] : doc.members()) {
    const JsonValue** slot = nullptr;
    if (key == "mesh") slot = &mesh;
    if (key == "assignments") slot = &assignments;
    TAP_CHECK(slot != nullptr) << "plan JSON: unknown key '" << key << "'";
    TAP_CHECK(*slot == nullptr) << "plan JSON: duplicate key '" << key << "'";
    *slot = &value;
  }
  TAP_CHECK(mesh != nullptr) << "plan JSON: missing \"mesh\"";
  TAP_CHECK(assignments != nullptr) << "plan JSON: missing \"assignments\"";

  sharding::ShardingPlan plan;
  read_mesh(*mesh, &plan);
  const sharding::PatternTable table(tg, plan.num_shards, plan.dp_replicas);
  plan.choice.assign(tg.num_nodes(), 0);
  for (const auto& [node, value] : assignments->members()) {
    const std::string& pattern = value.as_string();
    ir::GraphNodeId id = tg.find(node);
    TAP_CHECK(id != ir::kInvalidGraphNode)
        << "plan references unknown GraphNode '" << node << "'";
    const auto& pats = table.at(id);
    bool resolved = false;
    for (std::size_t i = 0; i < pats.size(); ++i) {
      if (pats[i].name == pattern) {
        plan.choice[static_cast<std::size_t>(id)] = static_cast<int>(i);
        resolved = true;
      }
    }
    TAP_CHECK(resolved) << "pattern '" << pattern << "' not applicable to '"
                        << node << "' under mesh " << plan.mesh().to_string();
  }
  return plan;
}

sharding::ShardingPlan plan_from_json(const ir::TapGraph& tg,
                                      const std::string& json) {
  return plan_from_json(tg, JsonValue::parse(json));
}

std::string plan_record_to_json(const ir::TapGraph& tg,
                                const PlanRecord& record) {
  TAP_CHECK_EQ(record.plan.choice.size(), tg.num_nodes())
      << "record does not cover the graph";
  auto array = [](std::initializer_list<double> values) {
    JsonValue a = JsonValue::array();
    for (double v : values) a.push_back(JsonValue::number(v));
    return a;
  };
  JsonValue choice = JsonValue::array();
  for (int c : record.plan.choice) choice.push_back(JsonValue::number(c));
  JsonValue timings = JsonValue::array();
  for (const PassTiming& t : record.timings) {
    JsonValue entry = JsonValue::array();
    entry.push_back(JsonValue::string(t.pass));
    entry.push_back(JsonValue::number(t.seconds));
    timings.push_back(std::move(entry));
  }
  const SearchStats& s = record.stats;
  JsonValue doc = JsonValue::object();
  doc.set("version", JsonValue::number(kPlanRecordVersion));
  doc.set("mesh", mesh_json(record.plan));
  doc.set("choice", std::move(choice));
  doc.set("cost", array({record.cost.forward_comm_s,
                         record.cost.backward_comm_s,
                         record.cost.overlappable_comm_s,
                         static_cast<double>(record.cost.comm_bytes)}));
  doc.set("stats", array({static_cast<double>(s.candidate_plans),
                          static_cast<double>(s.valid_plans),
                          static_cast<double>(s.nodes_visited),
                          static_cast<double>(s.cost_queries)}));
  doc.set("timings", std::move(timings));
  doc.set("search_seconds", JsonValue::number(record.search_seconds));
  return doc.dump();
}

PlanRecord plan_record_from_json(const ir::TapGraph& tg,
                                 const std::string& json) {
  const JsonValue doc = JsonValue::parse(json);
  const auto& members = doc.members();

  // Version gate FIRST: a mismatch must reject the payload before any
  // other member is interpreted.
  TAP_CHECK(!members.empty() && members[0].first == "version")
      << "plan record: \"version\" must be the first key";
  TAP_CHECK_EQ(members[0].second.as_int(), kPlanRecordVersion)
      << "plan record written by incompatible code";

  // Exactly these members, in this order: none missing, none extra.
  static constexpr const char* kKeys[] = {
      "version", "mesh",    "choice",         "cost",
      "stats",   "timings", "search_seconds",
  };
  for (std::size_t i = 1; i < std::size(kKeys); ++i) {
    TAP_CHECK(i < members.size() && members[i].first == kKeys[i])
        << "plan record: expected key \"" << kKeys[i] << "\"";
  }
  TAP_CHECK_EQ(members.size(), std::size(kKeys))
      << "plan record: unexpected key \"" << members.back().first << "\"";

  PlanRecord record;
  read_mesh(doc.at("mesh"), &record.plan);

  const std::vector<JsonValue>& choice =
      fixed_items(doc.at("choice"), tg.num_nodes(), "plan record choice");
  const sharding::PatternTable table(tg, record.plan.num_shards,
                                     record.plan.dp_replicas);
  record.plan.choice.assign(tg.num_nodes(), 0);
  for (const auto& n : tg.nodes()) {
    const auto id = static_cast<std::size_t>(n.id);
    const std::int64_t c = choice[id].as_int();
    TAP_CHECK(c >= 0 && c < static_cast<std::int64_t>(table.at(n.id).size()))
        << "plan record: choice " << c << " out of range for '" << n.name
        << "'";
    record.plan.choice[id] = static_cast<int>(c);
  }

  const std::vector<JsonValue>& cost = fixed_items(doc.at("cost"), 4, "cost");
  record.cost.forward_comm_s = cost[0].as_number();
  record.cost.backward_comm_s = cost[1].as_number();
  record.cost.overlappable_comm_s = cost[2].as_number();
  record.cost.comm_bytes = cost[3].as_int();

  const std::vector<JsonValue>& stats =
      fixed_items(doc.at("stats"), 4, "stats");
  record.stats.candidate_plans = stats[0].as_int();
  record.stats.valid_plans = stats[1].as_int();
  record.stats.nodes_visited = stats[2].as_int();
  record.stats.cost_queries = stats[3].as_int();

  for (const JsonValue& entry : doc.at("timings").items()) {
    const std::vector<JsonValue>& t = fixed_items(entry, 2, "timing");
    record.timings.push_back({t[0].as_string(), t[1].as_number()});
  }
  record.search_seconds = doc.at("search_seconds").as_number();
  return record;
}

}  // namespace tap::core
