#include "core/serialize.h"

#include <gtest/gtest.h>

#include "baselines/expert_plans.h"
#include "core/tap.h"
#include "graph/graph_builder.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "service/plan_cache.h"
#include "service/wire.h"
#include "util/check.h"
#include "util/json.h"

namespace tap::core {
namespace {

struct Fixture {
  Graph g;
  ir::TapGraph tg;
  explicit Fixture(int layers)
      : g(models::build_transformer(models::t5_with_layers(layers))),
        tg(ir::lower(g)) {}
};

TEST(Serialize, RoundTripsMegatronPlan) {
  Fixture f(2);
  auto plan = baselines::megatron_plan(f.tg, 8);
  plan.dp_replicas = 2;
  std::string json = plan_to_json(f.tg, plan);
  auto back = plan_from_json(f.tg, json);
  EXPECT_EQ(back.num_shards, 8);
  EXPECT_EQ(back.dp_replicas, 2);
  EXPECT_EQ(back.choice, plan.choice);
}

TEST(Serialize, RoundTripsAcrossRelowering) {
  // The plan must apply to a *separately built* identical model.
  Fixture a(2);
  auto plan = baselines::megatron_plan(a.tg, 8);
  std::string json = plan_to_json(a.tg, plan);

  Fixture b(2);
  auto back = plan_from_json(b.tg, json);
  auto routed = sharding::route_plan(b.tg, back);
  EXPECT_TRUE(routed.valid) << routed.error;
  EXPECT_EQ(back.choice, plan.choice);  // deterministic lowering
}

TEST(Serialize, RoundTripsSearchedPlan) {
  Fixture f(2);
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  auto r = auto_parallel(f.tg, opts);
  std::string json = plan_to_json(f.tg, r.best_plan);
  auto back = plan_from_json(f.tg, json);
  EXPECT_EQ(back.choice, r.best_plan.choice);
}

TEST(Serialize, PlanResponseCarriesPlanToJsonBytes) {
  // One writer: the served "plan" member is plan_json's document, so it
  // dumps to exactly the bytes plan_to_json writes.
  Fixture f(2);
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  const TapResult r = auto_parallel(f.tg, opts);
  const service::PlanKey key = service::make_plan_key(f.tg, opts, false);
  const std::string response = service::plan_response_json(f.tg, key, r);
  EXPECT_EQ(plan_to_json(f.tg, r.best_plan),
            util::JsonValue::parse(response).at("plan").dump());
}

TEST(Serialize, ControlCharactersInNamesStayValidJson) {
  // An op name with a newline and a raw control byte: the plan JSON must
  // still parse as JSON, give the name back, and read back as the plan.
  GraphBuilder b("g");
  const NodeId x = b.placeholder("x", {16, 32});
  b.matmul("odd\nname\x01/proj", x, 64);
  const Graph g = b.take();
  const ir::TapGraph tg = ir::lower(g);
  sharding::ShardingPlan plan = sharding::default_plan(tg, 4);
  std::string name;  // the weighted cluster's
  for (const ir::GraphNode& n : tg.nodes()) {
    if (!n.has_weight()) continue;
    name = n.name;
    plan.choice[static_cast<std::size_t>(n.id)] = 1;
  }
  ASSERT_NE(name.find('\n'), std::string::npos) << name;
  ASSERT_NE(name.find('\x01'), std::string::npos) << name;

  const std::string json = plan_to_json(tg, plan);
  // JSON strings may not hold raw control characters.
  EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
  EXPECT_NE(json.find("\"odd\\nname\\u0001\""), std::string::npos) << json;
  const util::JsonValue parsed = util::JsonValue::parse(json);
  const util::JsonValue& assignments = parsed.at("assignments");
  ASSERT_NE(assignments.find(name), nullptr) << json;
  EXPECT_EQ(plan_from_json(tg, json).choice, plan.choice);
}

TEST(Serialize, JsonMentionsMeshAndPatterns) {
  Fixture f(1);
  auto plan = baselines::megatron_plan(f.tg, 8);
  std::string json = plan_to_json(f.tg, plan);
  EXPECT_NE(json.find("\"mesh\":[1,8]"), std::string::npos);
  EXPECT_NE(json.find("split_col"), std::string::npos);
  EXPECT_NE(json.find("mha/q"), std::string::npos);
}

TEST(Serialize, UnknownNodeRejected) {
  Fixture f(1);
  std::string json =
      "{\"mesh\": [1, 8], \"assignments\": {\"no/such/node\": \"dp\"}}";
  EXPECT_THROW(plan_from_json(f.tg, json), CheckError);
}

TEST(Serialize, InapplicablePatternRejected) {
  Fixture f(1);
  // LayerNorm clusters are replicate-only: "split_col" must be refused.
  std::string json = "{\"mesh\": [1, 8], \"assignments\": {\"" +
                     std::string("t5_1l/encoder/block_0/mha") +
                     "\": \"split_col\"}}";
  EXPECT_THROW(plan_from_json(f.tg, json), CheckError);
}

TEST(Serialize, MalformedInputRejected) {
  Fixture f(1);
  EXPECT_THROW(plan_from_json(f.tg, "{"), CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"assignments\": {}}"), CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"mesh\": [1, 8]} trailing"),
               CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"mesh\": [0, 8], \"assignments\""
                                    ": {}}"),
               CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"mesh\": [1, 8]}"), CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"mesh\": [1, 8.5], \"assignments\""
                                    ": {}}"),
               CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"mesh\": [1, 8], \"mesh\": [1, 8], "
                                    "\"assignments\": {}}"),
               CheckError);
}

TEST(Serialize, UnlistedNodesDefaultToPatternZero) {
  Fixture f(1);
  std::string json = "{\"mesh\": [1, 8], \"assignments\": {}}";
  auto plan = plan_from_json(f.tg, json);
  for (int c : plan.choice) EXPECT_EQ(c, 0);
  EXPECT_TRUE(sharding::route_plan(f.tg, plan).valid);
}

TEST(Serialize, WhitespaceTolerant) {
  Fixture f(1);
  std::string json =
      "  {  \"mesh\"  :  [ 1 , 8 ] ,\n \"assignments\" : { } }  ";
  auto plan = plan_from_json(f.tg, json);
  EXPECT_EQ(plan.num_shards, 8);
  // Key order is free too.
  plan = plan_from_json(f.tg, "{\"assignments\": {}, \"mesh\": [1, 4]}");
  EXPECT_EQ(plan.num_shards, 4);
}

// ---------------------------------------------------------------------------
// PlanRecord: the plan cache's disk file, a /plan response plus the
// search_seconds line, read back through plan_response_from_json
// ---------------------------------------------------------------------------

struct Searched {
  TapResult result;
  service::PlanKey key;
};

Searched searched(const Fixture& f) {
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  return {auto_parallel(f.tg, opts), service::make_plan_key(f.tg, opts, false)};
}

TEST(PlanRecord, RoundTripsEverythingExactly) {
  Fixture f(2);
  const auto [r, key] = searched(f);
  ASSERT_GT(r.candidate_plans, 0);

  const std::string json = service::plan_response_json(f.tg, key, r);
  const service::PlanResponse response =
      service::plan_response_from_json(f.tg, json);
  EXPECT_EQ(response.key, key.to_hex());
  EXPECT_EQ(response.result.provenance.source, PlanSource::kComplete);

  const service::PlanRecord back = service::disk_file_from_json(
      f.tg, key, service::disk_file_json(f.tg, key, r));
  EXPECT_EQ(back.plan.num_shards, r.best_plan.num_shards);
  EXPECT_EQ(back.plan.dp_replicas, r.best_plan.dp_replicas);
  EXPECT_EQ(back.plan.choice, r.best_plan.choice);
  // Doubles round-trip bit-exactly (%.17g), not merely approximately.
  EXPECT_EQ(back.cost.forward_comm_s, r.cost.forward_comm_s);
  EXPECT_EQ(back.cost.backward_comm_s, r.cost.backward_comm_s);
  EXPECT_EQ(back.cost.overlappable_comm_s, r.cost.overlappable_comm_s);
  EXPECT_EQ(back.cost.comm_bytes, r.cost.comm_bytes);
  EXPECT_EQ(back.search_seconds, r.search_seconds);
  EXPECT_EQ(back.stats.candidate_plans, r.candidate_plans);
  EXPECT_EQ(back.stats.valid_plans, r.valid_plans);
  EXPECT_EQ(back.stats.nodes_visited, r.nodes_visited);
  EXPECT_EQ(back.stats.cost_queries, r.cost_queries);
}

TEST(PlanRecord, RoundTripsAwkwardDoubles) {
  Fixture f(1);
  const service::PlanKey key = searched(f).key;
  TapResult r;
  r.best_plan = sharding::default_plan(f.tg, 8, 2);
  r.cost.forward_comm_s = 0.1;  // not exactly representable
  r.cost.backward_comm_s = 1.0 / 3.0;
  r.cost.overlappable_comm_s = kInvalidPlanCost;  // "inf" round-trips
  for (const double seconds : {6.02214076e23, 5e-324}) {  // min subnormal
    r.search_seconds = seconds;
    const service::PlanRecord back = service::disk_file_from_json(
        f.tg, key, service::disk_file_json(f.tg, key, r));
    EXPECT_EQ(back.cost.forward_comm_s, r.cost.forward_comm_s);
    EXPECT_EQ(back.cost.backward_comm_s, r.cost.backward_comm_s);
    EXPECT_EQ(back.cost.overlappable_comm_s, kInvalidPlanCost);
    EXPECT_EQ(back.search_seconds, seconds);
  }
}

TEST(PlanRecord, VersionIsFirstKeyAndMismatchRejected) {
  Fixture f(1);
  const auto [r, key] = searched(f);
  const std::string json = service::disk_file_json(f.tg, key, r);
  ASSERT_EQ(json.find("{\"version\":"), 0u);

  // Same payload claiming a future version must be rejected up front.
  const std::string vkey =
      "\"version\":" + std::to_string(service::kPlanResponseVersion);
  std::string future = json;
  future.replace(0, 1 + vkey.size(),
                 "{\"version\":" +
                     std::to_string(service::kPlanResponseVersion + 1));
  EXPECT_THROW(service::plan_response_from_json(
                   f.tg, future.substr(0, future.find('\n'))),
               CheckError);
  EXPECT_THROW(service::disk_file_from_json(f.tg, key, future), CheckError);
  // "version" anywhere but first is rejected too.
  std::string moved = "{" + json.substr(vkey.size() + 2);  // dropped
  moved.insert(moved.find(",\"mesh\""), "," + vkey);
  EXPECT_THROW(service::disk_file_from_json(f.tg, key, moved), CheckError);
}

TEST(PlanRecord, MalformedAndMismatchedInputRejected) {
  Fixture f(1);
  const service::PlanKey key = searched(f).key;
  for (const char* text : {"", "{", "not json at all", "[]"}) {
    EXPECT_THROW(service::plan_response_from_json(f.tg, text), CheckError)
        << text;
    EXPECT_THROW(service::disk_file_from_json(f.tg, key, text), CheckError)
        << text;
  }
  // A valid document for a DIFFERENT graph: its names do not resolve.
  Fixture big(3);
  const auto [r, big_key] = searched(big);
  const std::string good = service::disk_file_json(big.tg, big_key, r);
  EXPECT_THROW(service::disk_file_from_json(f.tg, big_key, good), CheckError);
  ASSERT_NO_THROW(service::disk_file_from_json(big.tg, big_key, good));
  // ... and under another key.
  EXPECT_THROW(service::disk_file_from_json(big.tg, key, good), CheckError);

  // The valid file edited: an extra key, a dropped key, keys out of order,
  // an outer mesh that is not the plan's, a pattern that does not resolve,
  // an unknown or non-complete provenance, a total that is not the sum, a
  // missing or extended search_seconds line, trailing content.
  auto edited = [&](const std::string& from, const std::string& to) {
    std::string s = good;
    const auto pos = s.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return s.replace(pos, from.size(), to);
  };
  const std::string provenance = ",\"provenance\":\"complete\"";
  std::string reordered = edited(provenance, "");
  reordered.insert(reordered.find(",\"key\""), provenance);
  std::string unresolved = good;  // the first assignment's pattern renamed
  const std::size_t first = unresolved.find("\":\"",
                                            unresolved.find("\"assignments\""));
  unresolved.replace(first + 3, unresolved.find('"', first + 3) - first - 3,
                     "no_such_pattern");
  const std::string bad[] = {
      edited(",\"stats\":", ",\"extra\":0,\"stats\":"),
      edited(provenance, ""),
      reordered,
      edited("\"mesh\":[2,8]", "\"mesh\":[1,8]"),
      unresolved,
      edited("\"complete\"", "\"finished\""),
      edited("\"complete\"", "\"anytime\""),
      edited("\"total_s\":", "\"total_s\":1"),
      edited("\"cost_queries\":", "\"queries\":"),
      edited("\n{\"search_seconds\"", "{\"search_seconds\""),
      edited("{\"search_seconds\":", "{\"search_seconds\":0,\"more\":"),
      good.substr(0, good.find('\n')),
      good + "{}",
  };
  for (const std::string& json_bad : bad)
    EXPECT_THROW(service::disk_file_from_json(big.tg, big_key, json_bad),
                 CheckError)
        << json_bad;
}

}  // namespace
}  // namespace tap::core
