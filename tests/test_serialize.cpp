#include "core/serialize.h"

#include <gtest/gtest.h>

#include "baselines/expert_plans.h"
#include "core/tap.h"
#include "graph/graph_builder.h"
#include "ir/lowering.h"
#include "models/models.h"
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
// PlanRecord (the service plan-cache payload)
// ---------------------------------------------------------------------------

PlanRecord searched_record(const Fixture& f) {
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  auto r = auto_parallel(f.tg, opts);
  PlanRecord rec;
  rec.plan = r.best_plan;
  rec.cost = r.cost;
  rec.stats = {r.candidate_plans, r.valid_plans, r.nodes_visited,
               r.cost_queries};
  rec.timings = r.pass_timings;
  rec.search_seconds = r.search_seconds;
  return rec;
}

TEST(PlanRecord, RoundTripsEverythingExactly) {
  Fixture f(2);
  PlanRecord rec = searched_record(f);
  ASSERT_GT(rec.stats.candidate_plans, 0);
  ASSERT_FALSE(rec.timings.empty());

  PlanRecord back = plan_record_from_json(f.tg, plan_record_to_json(f.tg, rec));
  EXPECT_EQ(back.plan.num_shards, rec.plan.num_shards);
  EXPECT_EQ(back.plan.dp_replicas, rec.plan.dp_replicas);
  EXPECT_EQ(back.plan.choice, rec.plan.choice);
  // Doubles round-trip bit-exactly (%.17g), not merely approximately.
  EXPECT_EQ(back.cost.forward_comm_s, rec.cost.forward_comm_s);
  EXPECT_EQ(back.cost.backward_comm_s, rec.cost.backward_comm_s);
  EXPECT_EQ(back.search_seconds, rec.search_seconds);
  EXPECT_EQ(back.stats.candidate_plans, rec.stats.candidate_plans);
  EXPECT_EQ(back.stats.valid_plans, rec.stats.valid_plans);
  EXPECT_EQ(back.stats.nodes_visited, rec.stats.nodes_visited);
  EXPECT_EQ(back.stats.cost_queries, rec.stats.cost_queries);
  ASSERT_EQ(back.timings.size(), rec.timings.size());
  for (std::size_t i = 0; i < rec.timings.size(); ++i) {
    EXPECT_EQ(back.timings[i].pass, rec.timings[i].pass);
    EXPECT_EQ(back.timings[i].seconds, rec.timings[i].seconds);
  }
}

TEST(PlanRecord, RoundTripsAwkwardDoubles) {
  Fixture f(1);
  PlanRecord rec;
  rec.plan = sharding::default_plan(f.tg, 8, 2);
  rec.cost.forward_comm_s = 0.1;  // not exactly representable
  rec.cost.backward_comm_s = 1.0 / 3.0;
  rec.cost.overlappable_comm_s = kInvalidPlanCost;  // "inf" round-trips
  rec.search_seconds = 6.02214076e23;
  rec.timings.push_back({"FamilySearch", 5e-324});  // min subnormal
  PlanRecord back = plan_record_from_json(f.tg, plan_record_to_json(f.tg, rec));
  EXPECT_EQ(back.cost.forward_comm_s, rec.cost.forward_comm_s);
  EXPECT_EQ(back.cost.backward_comm_s, rec.cost.backward_comm_s);
  EXPECT_EQ(back.cost.overlappable_comm_s, kInvalidPlanCost);
  EXPECT_EQ(back.search_seconds, rec.search_seconds);
  ASSERT_EQ(back.timings.size(), 1u);
  EXPECT_EQ(back.timings[0].seconds, 5e-324);
}

TEST(PlanRecord, VersionIsFirstKeyAndMismatchRejected) {
  Fixture f(1);
  PlanRecord rec;
  rec.plan = sharding::default_plan(f.tg, 8);
  std::string json = plan_record_to_json(f.tg, rec);
  ASSERT_LT(json.find("\"version\""), json.find("\"mesh\""));

  // Same payload claiming a future version must be rejected up front.
  std::string vkey = "\"version\":" + std::to_string(kPlanRecordVersion);
  auto pos = json.find(vkey);
  ASSERT_NE(pos, std::string::npos);
  std::string future = json;
  future.replace(pos, vkey.size(),
                 "\"version\":" + std::to_string(kPlanRecordVersion + 1));
  EXPECT_THROW(plan_record_from_json(f.tg, future), CheckError);
}

TEST(PlanRecord, MalformedAndMismatchedInputRejected) {
  Fixture f(1);
  EXPECT_THROW(plan_record_from_json(f.tg, ""), CheckError);
  EXPECT_THROW(plan_record_from_json(f.tg, "{"), CheckError);
  EXPECT_THROW(plan_record_from_json(f.tg, "not json at all"), CheckError);
  // Structurally valid JSON for a DIFFERENT graph (wrong choice count).
  Fixture big(3);
  PlanRecord rec;
  rec.plan = sharding::default_plan(big.tg, 8);
  std::string json = plan_record_to_json(big.tg, rec);
  EXPECT_THROW(plan_record_from_json(f.tg, json), CheckError);

  // A valid record edited: an extra key, a dropped key, a choice index out
  // of range, a zero mesh dimension, trailing content.
  const std::string good = plan_record_to_json(big.tg, rec);
  ASSERT_NO_THROW(plan_record_from_json(big.tg, good));
  auto edited = [&](const std::string& from, const std::string& to) {
    std::string s = good;
    const auto pos = s.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return s.replace(pos, from.size(), to);
  };
  const std::string bad[] = {
      edited("\"search_seconds\"", "\"extra\":0,\"search_seconds\""),
      edited("\"timings\":[],", ""),
      edited("\"choice\":[0", "\"choice\":[99"),
      edited("\"mesh\":[1,8]", "\"mesh\":[0,8]"),
      good + "{}",
  };
  for (const std::string& json_bad : bad)
    EXPECT_THROW(plan_record_from_json(big.tg, json_bad), CheckError)
        << json_bad;
}

}  // namespace
}  // namespace tap::core
