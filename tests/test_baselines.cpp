#include "baselines/alpa_like.h"

#include <gtest/gtest.h>

#include "baselines/expert_plans.h"
#include "baselines/flexflow_like.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "util/check.h"

namespace tap::baselines {
namespace {

struct Fixture {
  Graph g;
  ir::TapGraph tg;
  explicit Fixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}
};

Fixture t5(int layers) {
  return Fixture(models::build_transformer(models::t5_with_layers(layers)));
}

TEST(ExpertPlans, MegatronShardsAllSixProjections) {
  Fixture f = t5(1);
  auto plan = megatron_plan(f.tg, 8);
  auto routed = sharding::route_plan(f.tg, plan);
  ASSERT_TRUE(routed.valid) << routed.error;
  auto check = [&](const char* node, const char* want) {
    auto id = f.tg.find(node);
    ASSERT_NE(id, ir::kInvalidGraphNode) << node;
    auto pats = sharding::patterns_for(f.tg, id, 8, 1);
    EXPECT_EQ(pats[static_cast<std::size_t>(
                  plan.choice[static_cast<std::size_t>(id)])].name,
              std::string(want))
        << node;
  };
  check("t5_1l/encoder/block_0/mha/q", "split_col");
  check("t5_1l/encoder/block_0/mha/k", "split_col");
  check("t5_1l/encoder/block_0/mha/v", "split_col");
  check("t5_1l/encoder/block_0/mha/o", "split_row");
  check("t5_1l/encoder/block_0/ffn/wi", "split_col");
  check("t5_1l/encoder/block_0/ffn/wo", "split_row");
  check("t5_1l/decoder/block_0/cross/q", "split_col");
}

TEST(ExpertPlans, MhaOnlyAndFfnOnlyArePartial) {
  Fixture f = t5(1);
  auto mha = mha_only_plan(f.tg, 8);
  auto ffn = ffn_only_plan(f.tg, 8);
  auto pattern_of = [&](const sharding::ShardingPlan& p, const char* node) {
    auto id = f.tg.find(node);
    auto pats = sharding::patterns_for(f.tg, id, 8, 1);
    return pats[static_cast<std::size_t>(
                    p.choice[static_cast<std::size_t>(id)])].name;
  };
  EXPECT_EQ(pattern_of(mha, "t5_1l/encoder/block_0/mha/q"), "split_col");
  EXPECT_EQ(pattern_of(mha, "t5_1l/encoder/block_0/ffn/wi"), "dp");
  EXPECT_EQ(pattern_of(ffn, "t5_1l/encoder/block_0/mha/q"), "dp");
  EXPECT_EQ(pattern_of(ffn, "t5_1l/encoder/block_0/ffn/wi"), "split_col");
}

TEST(ExpertPlans, NamedLookupAndUnknownThrows) {
  Fixture f = t5(1);
  for (const char* name : {"DP", "Megatron", "MHA", "FFN"}) {
    auto plan = named_expert_plan(name, f.tg, 8);
    EXPECT_TRUE(sharding::route_plan(f.tg, plan).valid) << name;
  }
  EXPECT_THROW(named_expert_plan("ZeRO", f.tg, 8), CheckError);
}

TEST(ExpertPlans, AllFourValidAt16GPUs) {
  Fixture f = t5(2);
  for (const char* name : {"DP", "Megatron", "MHA", "FFN"}) {
    auto plan = named_expert_plan(name, f.tg, 16);
    EXPECT_TRUE(sharding::route_plan(f.tg, plan).valid) << name;
  }
}

TEST(AlpaLike, FindsValidPlanAndCountsWork) {
  Fixture f = t5(1);
  AlpaOptions opts;
  opts.num_shards = 8;
  opts.max_candidate_plans = 4;
  opts.intra_op_trials = 8;
  opts.profile_repeats = 10;
  auto r = alpa_like_search(f.g, cost::ClusterSpec::v100_node(), opts);
  ASSERT_TRUE(r.found);
  EXPECT_GT(r.best_cost, 0.0);
  EXPECT_GT(r.ops_visited, 0);
  EXPECT_GT(r.cost_queries, 0);
  EXPECT_LE(r.plans_evaluated, opts.max_candidate_plans);
  EXPECT_EQ(r.plan_costs.size(),
            static_cast<std::size_t>(r.plans_evaluated));
  EXPECT_GT(r.search_seconds, 0.0);
}

TEST(AlpaLike, WorkScalesWithModelDepth) {
  // No folding: doubling the depth should grow the visited-op count
  // superlinearly (the V² stage DP dominates) — the opposite of TAP.
  AlpaOptions opts;
  opts.num_shards = 8;
  opts.max_candidate_plans = 2;
  opts.intra_op_trials = 2;
  opts.profile_repeats = 2;
  Fixture f2 = t5(2);
  Fixture f4 = t5(4);
  auto r2 = alpa_like_search(f2.g, cost::ClusterSpec::v100_node(), opts);
  auto r4 = alpa_like_search(f4.g, cost::ClusterSpec::v100_node(), opts);
  EXPECT_GT(r4.ops_visited, 3 * r2.ops_visited);
}

TEST(AlpaLike, RespectsShortlist) {
  Fixture f = t5(1);
  AlpaOptions a;
  a.num_shards = 8;
  a.max_candidate_plans = 1;
  a.intra_op_trials = 2;
  a.profile_repeats = 2;
  auto r = alpa_like_search(f.g, cost::ClusterSpec::v100_node(), a);
  EXPECT_EQ(r.plans_evaluated, 1);
}

TEST(FlexFlowLike, McmcImprovesOrMatchesInitialCost) {
  Fixture f = t5(1);
  FlexFlowOptions opts;
  opts.num_shards = 8;
  opts.trials = 40;
  auto r = flexflow_like_search(f.g, cost::ClusterSpec::v100_node(), opts);
  ASSERT_TRUE(r.found);
  EXPECT_LE(r.best_cost, r.plan_costs.front() + 1e-12);
  EXPECT_GE(r.plans_evaluated, 1);
}

TEST(FlexFlowLike, WorkIsTrialsTimesGraphSize) {
  Fixture f = t5(1);
  FlexFlowOptions opts;
  opts.num_shards = 8;
  opts.trials = 10;
  auto r = flexflow_like_search(f.g, cost::ClusterSpec::v100_node(), opts);
  ir::LoweringOptions lop;
  lop.cluster_by_scope = false;
  auto tg_ops = ir::lower(f.g, lop).num_nodes();
  // Initial eval + <= trials evals, each O(V).
  EXPECT_GE(r.ops_visited, static_cast<std::int64_t>(tg_ops));
  EXPECT_LE(r.ops_visited,
            static_cast<std::int64_t>(tg_ops) * (opts.trials + 1));
}

TEST(FlexFlowLike, DeterministicPerSeed) {
  Fixture f = t5(1);
  FlexFlowOptions opts;
  opts.num_shards = 8;
  opts.trials = 20;
  auto a = flexflow_like_search(f.g, cost::ClusterSpec::v100_node(), opts);
  auto b = flexflow_like_search(f.g, cost::ClusterSpec::v100_node(), opts);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.plan_costs, b.plan_costs);
}

}  // namespace
}  // namespace tap::baselines
