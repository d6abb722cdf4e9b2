#include "service/wire.h"

#include <climits>
#include <cstdio>
#include <initializer_list>
#include <utility>
#include <vector>

#include "core/serialize.h"
#include "models/models.h"
#include "net/http.h"
#include "util/check.h"
#include "util/json.h"

namespace tap::service {

namespace {

/// Strict base-10 parse into int64 (whole token must be a number).
std::int64_t parse_wire_int(const std::string& field,
                            const std::string& value) {
  TAP_CHECK(!value.empty()) << "empty value for '" << field << "'";
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(value, &pos, 10);
  } catch (const std::exception&) {
    pos = 0;
  }
  TAP_CHECK(pos == value.size())
      << "bad value for '" << field << "': '" << value << "'";
  return static_cast<std::int64_t>(v);
}

/// `v` as an int; out-of-range values throw instead of wrapping.
int narrow_wire_int(const std::string& field, std::int64_t v) {
  TAP_CHECK(v >= INT_MIN && v <= INT_MAX)
      << "'" << field << "' is out of range: " << v;
  return static_cast<int>(v);
}

int parse_wire_int32(const std::string& field, const std::string& value) {
  return narrow_wire_int(field, parse_wire_int(field, value));
}

void parse_mesh_string(const std::string& mesh, ModelSpec* spec) {
  if (mesh == "auto") {
    spec->dp = 0;
    spec->tp = 0;
    return;
  }
  int dp = 0, tp = 0;
  char trailing = '\0';
  TAP_CHECK(std::sscanf(mesh.c_str(), "%dx%d%c", &dp, &tp, &trailing) == 2 &&
            dp >= 1 && tp >= 1)
      << "bad mesh '" << mesh << "' (want DPxTP or auto)";
  spec->dp = dp;
  spec->tp = tp;
}

/// The members of `doc`, which must be exactly `keys`, in that order.
const std::vector<std::pair<std::string, util::JsonValue>>& exact_members(
    const util::JsonValue& doc, std::initializer_list<std::string_view> keys,
    const char* what) {
  const auto& members = doc.members();
  std::size_t i = 0;
  for (const std::string_view key : keys) {
    TAP_CHECK(i < members.size() && members[i].first == key)
        << what << ": expected key \"" << key << "\"";
    ++i;
  }
  TAP_CHECK_EQ(members.size(), keys.size())
      << what << ": unexpected key \"" << members.back().first << "\"";
  return members;
}

void validate(const ModelSpec& spec) {
  TAP_CHECK(known_model(spec.model))
      << "unknown model '" << spec.model
      << "' (want t5 | bert | gpt3 | resnet50 | resnet152 | moe)";
  TAP_CHECK(spec.layers >= 1) << "layers must be >= 1";
  TAP_CHECK(spec.classes >= 1) << "classes must be >= 1";
  TAP_CHECK(spec.batch >= 1) << "batch must be >= 1";
  TAP_CHECK(spec.nodes >= 1) << "nodes must be >= 1";
  TAP_CHECK(spec.gpus >= 1) << "gpus must be >= 1";
  TAP_CHECK(spec.deadline_ms >= 0) << "deadline_ms must be >= 0";
  TAP_CHECK((spec.dp >= 1 && spec.tp >= 1) || (spec.dp == 0 && spec.tp == 0))
      << "mesh must be DPxTP (both >= 1) or auto";
}

}  // namespace

bool known_model(const std::string& model) {
  return model == "t5" || model == "bert" || model == "gpt3" ||
         model == "resnet50" || model == "resnet152" || model == "moe";
}

ModelSpec model_spec_from_json(const std::string& json) {
  const util::JsonValue doc = util::JsonValue::parse(json);
  TAP_CHECK(doc.kind() == util::JsonValue::Kind::kObject)
      << "plan request must be a JSON object";
  ModelSpec spec;
  auto as_int = [](const std::string& key, const util::JsonValue& v) {
    TAP_CHECK(v.kind() == util::JsonValue::Kind::kNumber)
        << "'" << key << "' must be a number";
    return v.as_int();
  };
  auto as_int32 = [&](const std::string& key, const util::JsonValue& v) {
    return narrow_wire_int(key, as_int(key, v));
  };
  for (const auto& [key, value] : doc.members()) {
    if (key == "model") {
      spec.model = value.as_string();
    } else if (key == "layers") {
      spec.layers = as_int32(key, value);
    } else if (key == "classes") {
      spec.classes = as_int(key, value);
    } else if (key == "batch") {
      spec.batch = as_int(key, value);
    } else if (key == "nodes") {
      spec.nodes = as_int32(key, value);
    } else if (key == "gpus") {
      spec.gpus = as_int32(key, value);
    } else if (key == "deadline_ms") {
      spec.deadline_ms = as_int(key, value);
    } else if (key == "mesh") {
      if (value.kind() == util::JsonValue::Kind::kString) {
        parse_mesh_string(value.as_string(), &spec);
      } else {
        TAP_CHECK(value.kind() == util::JsonValue::Kind::kArray &&
                  value.items().size() == 2)
            << "'mesh' must be \"auto\", \"DPxTP\", or [dp, tp]";
        spec.dp = as_int32(key, value.items()[0]);
        spec.tp = as_int32(key, value.items()[1]);
      }
    } else {
      // Strict by design: a typo'd knob must fail loudly, not silently
      // plan something else under the caller's nose.
      TAP_CHECK(false) << "unknown plan request key '" << key << "'";
    }
  }
  validate(spec);
  return spec;
}

ModelSpec model_spec_from_query(std::string_view target) {
  ModelSpec spec;
  auto param = [&](const char* key) { return net::query_param(target, key); };
  if (std::string v = param("model"); !v.empty()) spec.model = v;
  if (std::string v = param("layers"); !v.empty())
    spec.layers = parse_wire_int32("layers", v);
  if (std::string v = param("classes"); !v.empty())
    spec.classes = parse_wire_int("classes", v);
  if (std::string v = param("batch"); !v.empty())
    spec.batch = parse_wire_int("batch", v);
  if (std::string v = param("nodes"); !v.empty())
    spec.nodes = parse_wire_int32("nodes", v);
  if (std::string v = param("gpus"); !v.empty())
    spec.gpus = parse_wire_int32("gpus", v);
  if (std::string v = param("deadline_ms"); !v.empty())
    spec.deadline_ms = parse_wire_int("deadline_ms", v);
  if (std::string v = param("mesh"); !v.empty()) parse_mesh_string(v, &spec);
  validate(spec);
  return spec;
}

std::string model_spec_to_json(const ModelSpec& spec) {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("model", util::JsonValue::string(spec.model));
  doc.set("layers", util::JsonValue::number(spec.layers));
  doc.set("classes", util::JsonValue::number(
                         static_cast<double>(spec.classes)));
  doc.set("batch",
          util::JsonValue::number(static_cast<double>(spec.batch)));
  doc.set("nodes", util::JsonValue::number(spec.nodes));
  doc.set("gpus", util::JsonValue::number(spec.gpus));
  if (spec.sweep()) {
    doc.set("mesh", util::JsonValue::string("auto"));
  } else {
    util::JsonValue mesh = util::JsonValue::array();
    mesh.push_back(util::JsonValue::number(spec.dp));
    mesh.push_back(util::JsonValue::number(spec.tp));
    doc.set("mesh", std::move(mesh));
  }
  doc.set("deadline_ms", util::JsonValue::number(
                             static_cast<double>(spec.deadline_ms)));
  return doc.dump();
}

Graph build_spec_model(const ModelSpec& spec) {
  using namespace tap::models;
  if (spec.model == "t5") {
    TransformerConfig cfg = t5_with_layers(spec.layers);
    cfg.batch = spec.batch;
    return build_transformer(cfg);
  }
  if (spec.model == "bert") {
    TransformerConfig cfg = bert_large();
    cfg.num_layers = spec.layers;
    cfg.batch = spec.batch;
    return build_transformer(cfg);
  }
  if (spec.model == "gpt3") {
    TransformerConfig cfg = gpt3();
    cfg.num_layers = spec.layers;
    return build_transformer(cfg);
  }
  if (spec.model == "resnet50" || spec.model == "resnet152") {
    ResNetConfig cfg = spec.model == "resnet50" ? resnet50(spec.classes)
                                                : resnet152(spec.classes);
    cfg.batch = spec.batch;
    return build_resnet(cfg);
  }
  TAP_CHECK(spec.model == "moe") << "unknown model '" << spec.model << "'";
  MoeConfig cfg = widenet();
  cfg.num_layers = spec.layers;
  cfg.batch = spec.batch;
  return build_moe_transformer(cfg);
}

core::TapOptions options_for_spec(const ModelSpec& spec, int threads) {
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(spec.nodes);
  opts.cluster.gpus_per_node = spec.gpus;
  opts.threads = threads;
  opts.deadline_ms = spec.deadline_ms;
  if (!spec.sweep()) {
    opts.dp_replicas = spec.dp;
    opts.num_shards = spec.tp;
  }
  return opts;
}

std::string plan_response_json(const ir::TapGraph& tg, const PlanKey& key,
                               const core::TapResult& result) {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("version", util::JsonValue::number(kPlanResponseVersion));
  doc.set("key", util::JsonValue::string(key.to_hex()));
  util::JsonValue mesh = util::JsonValue::array();
  mesh.push_back(util::JsonValue::number(result.best_plan.dp_replicas));
  mesh.push_back(util::JsonValue::number(result.best_plan.num_shards));
  doc.set("mesh", std::move(mesh));
  doc.set("provenance",
          util::JsonValue::string(
              core::plan_source_name(result.provenance.source)));
  doc.set("plan", core::plan_json(tg, result.best_plan));
  util::JsonValue cost = util::JsonValue::object();
  cost.set("forward_comm_s",
           util::JsonValue::number(result.cost.forward_comm_s));
  cost.set("backward_comm_s",
           util::JsonValue::number(result.cost.backward_comm_s));
  cost.set("overlappable_comm_s",
           util::JsonValue::number(result.cost.overlappable_comm_s));
  cost.set("comm_bytes", util::JsonValue::number(
                             static_cast<double>(result.cost.comm_bytes)));
  cost.set("total_s", util::JsonValue::number(result.cost.total()));
  doc.set("cost", std::move(cost));
  util::JsonValue stats = util::JsonValue::object();
  stats.set("candidate_plans",
            util::JsonValue::number(
                static_cast<double>(result.candidate_plans)));
  stats.set("valid_plans", util::JsonValue::number(
                               static_cast<double>(result.valid_plans)));
  stats.set("nodes_visited",
            util::JsonValue::number(
                static_cast<double>(result.nodes_visited)));
  stats.set("cost_queries", util::JsonValue::number(
                                static_cast<double>(result.cost_queries)));
  doc.set("stats", std::move(stats));
  return doc.dump();
}

PlanResponse plan_response_from_json(const ir::TapGraph& tg,
                                     std::string_view json) {
  const util::JsonValue doc = util::JsonValue::parse(json);
  const auto& members = doc.members();
  // Version gate first: a document of another version is rejected before
  // any other member is read.
  TAP_CHECK(!members.empty() && members[0].first == "version")
      << "plan response: \"version\" must be the first key";
  TAP_CHECK_EQ(members[0].second.as_int(), kPlanResponseVersion)
      << "plan response written by incompatible code";
  exact_members(doc,
                {"version", "key", "mesh", "provenance", "plan", "cost",
                 "stats"},
                "plan response");

  PlanResponse response{members[1].second.as_string(), {}};
  core::TapResult& r = response.result;
  r.provenance.source =
      core::plan_source_from_name(members[3].second.as_string());
  r.best_plan = core::plan_from_json(tg, members[4].second);
  const std::vector<util::JsonValue>& mesh = members[2].second.items();
  TAP_CHECK(mesh.size() == 2 && mesh[0].as_int() == r.best_plan.dp_replicas &&
            mesh[1].as_int() == r.best_plan.num_shards)
      << "plan response: \"mesh\" is not the plan's mesh";

  const auto& cost = exact_members(
      members[5].second,
      {"forward_comm_s", "backward_comm_s", "overlappable_comm_s",
       "comm_bytes", "total_s"},
      "plan response cost");
  r.cost.forward_comm_s = cost[0].second.as_number();
  r.cost.backward_comm_s = cost[1].second.as_number();
  r.cost.overlappable_comm_s = cost[2].second.as_number();
  r.cost.comm_bytes = cost[3].second.as_int();
  TAP_CHECK(cost[4].second.as_number() == r.cost.total())
      << "plan response: \"total_s\" is not the cost's total";

  const auto& stats = exact_members(
      members[6].second,
      {"candidate_plans", "valid_plans", "nodes_visited", "cost_queries"},
      "plan response stats");
  r.candidate_plans = stats[0].second.as_int();
  r.valid_plans = stats[1].second.as_int();
  r.nodes_visited = stats[2].second.as_int();
  r.cost_queries = stats[3].second.as_int();
  return response;
}

}  // namespace tap::service
