// PlannerPipeline — pass sequencing, pluggable search policies, and the
// determinism contract of the parallel family/mesh search (plans, costs
// and statistics must be bit-identical at every thread count).
#include "core/planner_pipeline.h"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/serialize.h"
#include "core/tap.h"
#include "models/models.h"

namespace tap::core {
namespace {

struct Fixture {
  Graph g;
  ir::TapGraph tg;
  explicit Fixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}
};

Fixture t5(int layers) {
  return Fixture(models::build_transformer(models::t5_with_layers(layers)));
}

Fixture moe(int layers) {
  models::MoeConfig cfg = models::widenet();
  cfg.num_layers = layers;
  return Fixture(models::build_moe_transformer(cfg));
}

void expect_identical(const TapResult& a, const TapResult& b) {
  EXPECT_EQ(a.best_plan.num_shards, b.best_plan.num_shards);
  EXPECT_EQ(a.best_plan.dp_replicas, b.best_plan.dp_replicas);
  EXPECT_EQ(a.best_plan.choice, b.best_plan.choice);
  EXPECT_EQ(a.cost.total(), b.cost.total());  // bit-identical, not approx
  EXPECT_EQ(a.candidate_plans, b.candidate_plans);
  EXPECT_EQ(a.valid_plans, b.valid_plans);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.cost_queries, b.cost_queries);
}

TEST(PlannerPipeline, StandardPassSequence) {
  PlannerPipeline p = PlannerPipeline::standard();
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p.pass(0).name(), "BuildPatternTable");
  EXPECT_EQ(p.pass(1).name(), "Prune");
  EXPECT_EQ(p.pass(2).name(), "FamilySearch");
  EXPECT_EQ(p.pass(3).name(), "GlobalRefine");
  EXPECT_EQ(p.pass(4).name(), "FinalizeCost");
}

TEST(PlannerPipeline, RecordsOneTimingPerPass) {
  Fixture f = t5(2);
  TapOptions opts;
  opts.num_shards = 8;
  TapResult r = auto_parallel(f.tg, opts);
  ASSERT_EQ(r.pass_timings.size(), 5u);
  EXPECT_EQ(r.pass_timings[0].pass, "BuildPatternTable");
  EXPECT_EQ(r.pass_timings[2].pass, "FamilySearch");
  double sum = 0.0;
  for (const auto& t : r.pass_timings) {
    EXPECT_GE(t.seconds, 0.0);
    sum += t.seconds;
  }
  EXPECT_LE(sum, r.search_seconds + 1e-3);
  EXPECT_EQ(r.pass_timings.size(), 5u);
}

TEST(PlannerPipeline, RunPrefixStopsAfterRequestedPass) {
  Fixture f = t5(2);
  TapOptions opts;
  opts.num_shards = 8;
  PlanContext ctx;
  ctx.tg = &f.tg;
  ctx.opts = opts;
  PlannerPipeline p = PlannerPipeline::standard();
  p.run_prefix(ctx, 2);  // BuildPatternTable + Prune only
  EXPECT_TRUE(ctx.table.has_value());
  EXPECT_FALSE(ctx.pruning.families.empty());
  EXPECT_TRUE(ctx.plan.empty());  // FamilySearch has not run
  ASSERT_EQ(ctx.timings.size(), 2u);
  EXPECT_EQ(ctx.timings[0].pass, "BuildPatternTable");
  EXPECT_EQ(ctx.timings[1].pass, "Prune");
}

TEST(FamilySearchPolicy, ExplicitPoliciesDriveTheSamePipeline) {
  Fixture f = t5(2);
  TapOptions opts;
  opts.num_shards = 8;

  PlanContext ex_ctx;
  ex_ctx.tg = &f.tg;
  ex_ctx.opts = opts;
  PlannerPipeline::standard(std::make_shared<ExhaustivePolicy>()).run(ex_ctx);
  EXPECT_TRUE(ex_ctx.routed.valid);

  PlanContext dp_ctx;
  dp_ctx.tg = &f.tg;
  dp_ctx.opts = opts;
  PlannerPipeline::standard(std::make_shared<FrontierDpPolicy>()).run(dp_ctx);
  EXPECT_TRUE(dp_ctx.routed.valid);

  // The DP decides what scoring every candidate decides, with the same
  // counters.
  EXPECT_EQ(dp_ctx.plan.choice, ex_ctx.plan.choice);
  EXPECT_EQ(dp_ctx.cost.total(), ex_ctx.cost.total());
  EXPECT_EQ(dp_ctx.stats.candidate_plans, ex_ctx.stats.candidate_plans);
  EXPECT_EQ(dp_ctx.stats.valid_plans, ex_ctx.stats.valid_plans);
  EXPECT_EQ(dp_ctx.stats.nodes_visited, ex_ctx.stats.nodes_visited);
  EXPECT_EQ(dp_ctx.stats.cost_queries, ex_ctx.stats.cost_queries);
}

TEST(ParallelSearch, ThreadsDoNotChangeT5Results) {
  Fixture f = t5(4);
  TapOptions seq;
  seq.num_shards = 8;
  seq.threads = 1;
  TapOptions par = seq;
  par.threads = 4;
  expect_identical(auto_parallel(f.tg, seq), auto_parallel(f.tg, par));
}

TEST(ParallelSearch, ThreadsDoNotChangeMoEResults) {
  Fixture f = moe(4);
  TapOptions seq;
  seq.num_shards = 8;
  seq.threads = 1;
  TapOptions par = seq;
  par.threads = 4;
  expect_identical(auto_parallel(f.tg, seq), auto_parallel(f.tg, par));
}

TEST(ParallelSearch, ThreadsDoNotChangeBestMeshSweep) {
  // The (dp, tp) sweep parallelizes across factorizations; the winner and
  // the aggregated statistics must match the sequential sweep exactly
  // (ties resolve by mesh index, never completion order).
  auto check = [](const Fixture& f) {
    TapOptions seq;
    seq.cluster = cost::ClusterSpec::v100_cluster(2);
    seq.threads = 1;
    TapOptions par = seq;
    par.threads = 4;
    expect_identical(auto_parallel_best_mesh(f.tg, seq),
                     auto_parallel_best_mesh(f.tg, par));
  };
  Fixture a = t5(2);
  check(a);
  Fixture b = moe(2);
  check(b);
}

TEST(ParallelSearch, AutoThreadsMatchSequentialToo) {
  Fixture f = t5(2);
  TapOptions seq;
  seq.num_shards = 8;
  seq.threads = 1;
  TapOptions par = seq;
  par.threads = 0;  // hardware_concurrency
  expect_identical(auto_parallel(f.tg, seq), auto_parallel(f.tg, par));
}

class ZooThreadIdentity : public ::testing::TestWithParam<int> {};

TEST_P(ZooThreadIdentity, PlansAreByteIdentical) {
  // Every Table 1 model at 8 shards x dp 2: threads=1 and threads=4 must
  // give the same plan bytes, cost bits and search statistics.
  const models::ZooEntry entry =
      models::table1_zoo()[static_cast<std::size_t>(GetParam())];
  SCOPED_TRACE(entry.model);
  Graph g = entry.build();
  ir::TapGraph tg = ir::lower(g);
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  opts.threads = 1;
  const TapResult seq = auto_parallel(tg, opts);
  opts.threads = 4;
  const TapResult par = auto_parallel(tg, opts);

  ASSERT_TRUE(seq.routed.valid) << seq.routed.error;
  ASSERT_TRUE(par.routed.valid) << par.routed.error;
  EXPECT_EQ(plan_to_json(tg, seq.best_plan), plan_to_json(tg, par.best_plan));
  auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  EXPECT_EQ(bits(seq.cost.forward_comm_s), bits(par.cost.forward_comm_s));
  EXPECT_EQ(bits(seq.cost.backward_comm_s), bits(par.cost.backward_comm_s));
  EXPECT_EQ(bits(seq.cost.overlappable_comm_s),
            bits(par.cost.overlappable_comm_s));
  EXPECT_EQ(seq.cost.comm_bytes, par.cost.comm_bytes);
  EXPECT_EQ(seq.candidate_plans, par.candidate_plans);
  EXPECT_EQ(seq.valid_plans, par.valid_plans);
  EXPECT_EQ(seq.cost_queries, par.cost_queries);
}

std::string zoo_test_name(const ::testing::TestParamInfo<int>& info) {
  const std::string model =
      models::table1_zoo()[static_cast<std::size_t>(info.param)].model;
  std::string out;
  for (char c : model)
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllTable1Models, ZooThreadIdentity,
                         ::testing::Range(0, 10), zoo_test_name);

TEST(InvalidCost, SentinelOrdersAfterEveryRealCost) {
  EXPECT_TRUE(std::isinf(kInvalidPlanCost));
  EXPECT_GT(kInvalidPlanCost, 1e300);
}

}  // namespace
}  // namespace tap::core
