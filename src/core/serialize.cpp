#include "core/serialize.h"

#include <climits>
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

/// Reads [dp, tp] (both >= 1) into `plan`.
void read_mesh(const JsonValue& v, sharding::ShardingPlan* plan) {
  const std::vector<JsonValue>& dims = v.items();
  TAP_CHECK_EQ(dims.size(), 2u) << "mesh must have 2 entries";
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
  JsonValue mesh = JsonValue::array();
  mesh.push_back(JsonValue::number(plan.dp_replicas));
  mesh.push_back(JsonValue::number(plan.num_shards));
  JsonValue doc = JsonValue::object();
  doc.set("mesh", std::move(mesh));
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

}  // namespace tap::core
