#include "baselines/alpa_like.h"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "baselines/expert_plans.h"
#include "baselines/flexflow_like.h"
#include "baselines/whole_graph.h"
#include "core/plan_context.h"
#include "core/planner_pipeline.h"
#include "graph/graph_builder.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"

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

TEST(WholeGraphScorer, ScoresEveryTrialAsFinalizeCostDoes) {
  // The baselines and TAP score plans under one overlap rule: a trial's
  // cost is core::finalize_cost's total for its route, bit for bit, from
  // the data-parallel start through a random walk of one-op mutations.
  const Graph g = models::build_transformer(models::t5_with_layers(2));
  ir::LoweringOptions lop;
  lop.cluster_by_scope = false;
  const ir::TapGraph tg = ir::lower(g, lop);
  const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  for (const int tp : {4, 8}) {
    WholeGraphScorer scorer(tg, tp, cluster);
    util::Rng rng(static_cast<std::uint64_t>(tp));
    sharding::ShardingPlan plan = sharding::default_plan(tg, tp);
    int scored = 0;
    for (int draw = 0; draw < 40; ++draw) {
      sharding::ShardingPlan trial = plan;
      if (draw > 0) scorer.mutate(&trial, &rng);
      double got = 0.0;
      if (!scorer.evaluate(trial, &got)) continue;
      ++scored;
      const sharding::RoutedPlan routed = sharding::route_plan(tg, trial);
      ASSERT_TRUE(routed.valid) << routed.error;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(
                    core::finalize_cost(tg, routed, cluster).total()))
          << "tp " << tp << " draw " << draw;
      plan = std::move(trial);
    }
    EXPECT_GE(scored, 21) << "tp " << tp;
  }
}

// ---------------------------------------------------------------------------
// Pinned results: every field a baseline search reports, as bits, for
// fixed seeds. The values were recorded when the searches moved to the
// planner's overlap rule (the full-graph backward-compute window); any
// change to the search loop, its RNG draws or its cost recipe shows up
// here. At these settings every search keeps the data-parallel default as
// its best plan (each model's choice digest is its all-zeros plan), so
// plan_costs, the cost of every candidate, carries most of the pin.
// ---------------------------------------------------------------------------

struct Pin {
  std::uint64_t choice = 0;      ///< digest of best_plan.choice
  std::uint64_t best_cost = 0;   ///< bits of best_cost
  std::uint64_t plan_costs = 0;  ///< digest of the bits of plan_costs
  std::int64_t ops_visited = 0;
  std::int64_t cost_queries = 0;
  int plans_evaluated = 0;
  std::uint64_t profiling = 0;  ///< bits of simulated_profiling_seconds

  bool operator==(const Pin&) const = default;
};

std::string to_string(const Pin& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, %" PRId64 ", %" PRId64 ", %d, 0x%016" PRIx64 "ull}",
                p.choice, p.best_cost, p.plan_costs, p.ops_visited,
                p.cost_queries, p.plans_evaluated, p.profiling);
  return buf;
}

Pin pin_of(const BaselineSearchResult& r) {
  Pin p;
  p.choice = util::kFnvOffset;
  for (int c : r.best_plan.choice)
    p.choice = util::hash_u64(static_cast<std::uint64_t>(c), p.choice);
  p.best_cost = std::bit_cast<std::uint64_t>(r.best_cost);
  p.plan_costs = util::kFnvOffset;
  for (double c : r.plan_costs)
    p.plan_costs = util::hash_u64(std::bit_cast<std::uint64_t>(c),
                                  p.plan_costs);
  p.ops_visited = r.ops_visited;
  p.cost_queries = r.cost_queries;
  p.plans_evaluated = r.plans_evaluated;
  p.profiling = std::bit_cast<std::uint64_t>(r.simulated_profiling_seconds);
  return p;
}

AlpaOptions pinned_alpa(int num_shards, std::uint64_t seed) {
  AlpaOptions a;
  a.num_shards = num_shards;
  a.max_candidate_plans = 3;
  a.intra_op_trials = 12;
  a.profile_repeats = 4;
  a.seed = seed;
  return a;
}

FlexFlowOptions pinned_flexflow(int num_shards, std::uint64_t seed) {
  FlexFlowOptions o;
  o.num_shards = num_shards;
  o.trials = 40;
  o.seed = seed;
  return o;
}

TEST(BaselinePin, ResultsMatchRecordedBits) {
  const cost::ClusterSpec cluster = cost::ClusterSpec::v100_node();
  Fixture t5_1 = t5(1);
  Fixture t5_2 = t5(2);
  struct Case {
    const char* name;
    BaselineSearchResult result;
    Pin want;
  };
  const Case cases[] = {
      {"alpa t5-1l tp8 seed 1234",
       alpa_like_search(t5_1.g, cluster, pinned_alpa(8, 1234)),
       {0x1bb112837a4c48e5ull, 0x3f9e5cb27be67b9dull, 0x8df66f25901c4423ull,
        216358, 39, 3, 0x3fe8a4a71d1a80d9ull}},
      {"alpa t5-2l tp4 seed 7",
       alpa_like_search(t5_2.g, cluster, pinned_alpa(4, 7)),
       {0x4e924f81418e9dc5ull, 0x3fb4436995aaf442ull, 0x6a3300896a16201cull,
        367579, 39, 3, 0x3ff313fa644f8b47ull}},
      {"flexflow t5-1l tp8 seed 99",
       flexflow_like_search(t5_1.g, cluster, pinned_flexflow(8, 99)),
       {0x1bb112837a4c48e5ull, 0x3fa3fcbe428a24b3ull, 0xa70067ad6668c9a9ull,
        3526, 41, 41, 0x0000000000000000ull}},
      {"flexflow t5-2l tp4 seed 5",
       flexflow_like_search(t5_2.g, cluster, pinned_flexflow(4, 5)),
       {0x4e924f81418e9dc5ull, 0x0000000000000000ull, 0x8bb73931f8b17df2ull,
        6601, 41, 41, 0x0000000000000000ull}},
  };
  for (const Case& c : cases) {
    EXPECT_TRUE(c.result.found) << c.name;
    EXPECT_EQ(pin_of(c.result), c.want)
        << c.name << ": got " << to_string(pin_of(c.result));
  }
}

TEST(BaselinePin, UnweightedGraphFindsNoCommCost) {
  GraphBuilder b("unweighted");
  NodeId x = b.placeholder("x", {8, 64});
  NodeId y = b.relu("act", x);
  b.add("sum", x, y);
  Graph g = b.take();
  const cost::ClusterSpec cluster = cost::ClusterSpec::v100_node();
  const BaselineSearchResult alpa =
      alpa_like_search(g, cluster, pinned_alpa(8, 1));
  ASSERT_FALSE(alpa.plan_costs.empty());
  for (double c : alpa.plan_costs) EXPECT_EQ(c, core::kInvalidPlanCost);
  EXPECT_EQ(alpa.cost_queries, 0);
  const BaselineSearchResult ff =
      flexflow_like_search(g, cluster, pinned_flexflow(8, 1));
  EXPECT_FALSE(ff.found);
  EXPECT_EQ(ff.ops_visited, 0);
}

/// The planner's family and pass metrics, by name.
std::map<std::string, std::uint64_t> planner_metrics() {
  const util::JsonValue snap =
      util::JsonValue::parse(obs::registry().dump_json());
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : snap.at("counters").members())
    if (name.rfind("planner.family.", 0) == 0)
      out[name] = static_cast<std::uint64_t>(v.as_int());
  for (const auto& [name, v] : snap.at("histograms").members())
    if (name.rfind("planner.pass.", 0) == 0)
      out[name] = static_cast<std::uint64_t>(v.at("count").as_int());
  return out;
}

TEST(BaselinePin, SearchesLeaveThePlannerMetricsAlone) {
  Fixture f = t5(1);
  const cost::ClusterSpec cluster = cost::ClusterSpec::v100_node();
  const auto before = planner_metrics();
  alpa_like_search(f.g, cluster, pinned_alpa(8, 1234));
  flexflow_like_search(f.g, cluster, pinned_flexflow(8, 99));
  EXPECT_EQ(planner_metrics(), before)
      << "a baseline search is not a TAP family search";
}

}  // namespace
}  // namespace tap::baselines
