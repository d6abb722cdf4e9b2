// Failure injection and edge cases across the pipeline: malformed inputs,
// degenerate graphs, indivisible shapes, extreme mesh sizes. The planner
// must degrade to valid fallbacks or fail with a diagnosable error — never
// crash or emit an invalid plan silently.
#include <gtest/gtest.h>

#include <cctype>

#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "rewrite/rewrite.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace tap {
namespace {

TensorSpec f32(TensorShape s) { return {std::move(s), DType::kF32}; }

TEST(Robustness, EmptyGraphLowersAndPlans) {
  Graph g("empty");
  ir::TapGraph tg = ir::lower(g);
  EXPECT_EQ(tg.num_nodes(), 0u);
  core::TapOptions opts;
  opts.num_shards = 8;
  auto r = core::auto_parallel(tg, opts);
  EXPECT_TRUE(r.routed.valid);
  EXPECT_EQ(r.cost.total(), 0.0);
}

TEST(Robustness, SingleOpGraph) {
  Graph g("one");
  g.add("x", OpKind::kPlaceholder, {}, f32({4, 4}));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts;
  opts.num_shards = 8;
  auto r = core::auto_parallel(tg, opts);
  EXPECT_TRUE(r.routed.valid);
}

TEST(Robustness, AuxOnlyGraphLowersToNothing) {
  Graph g("aux");
  g.add("init", OpKind::kVariableInit, {}, f32({8}));
  g.add("step", OpKind::kGlobalStep, {}, {TensorShape::scalar(), DType::kI64});
  ir::TapGraph tg = ir::lower(g);
  EXPECT_EQ(tg.num_nodes(), 0u);
}

TEST(Robustness, PrimeDimensionsFallBackToReplication) {
  // Weights with prime dimensions cannot split over 8 devices anywhere;
  // the batch (7) cannot split either. Everything must degrade to the
  // replicate pattern and still produce a valid plan.
  GraphBuilder b("prime");
  NodeId x = b.placeholder("x", {7, 13});
  NodeId m = b.matmul("dense", x, 17);
  NodeId labels = b.placeholder("labels", {7, 17});
  b.cross_entropy("loss", m, labels);
  Graph g = b.take();
  ir::TapGraph tg = ir::lower(g);

  auto dense = tg.find("dense");
  ASSERT_NE(dense, ir::kInvalidGraphNode);
  auto pats = sharding::patterns_for(tg, dense, 8, 1);
  ASSERT_EQ(pats.size(), 1u);
  EXPECT_EQ(pats[0].name, "replicate");

  core::TapOptions opts;
  opts.num_shards = 8;
  auto r = core::auto_parallel(tg, opts);
  EXPECT_TRUE(r.routed.valid);
  EXPECT_EQ(r.cost.total(), 0.0);  // replicated data: nothing to exchange
}

TEST(Robustness, MeshLargerThanEveryDimension) {
  GraphBuilder b("tiny");
  NodeId x = b.placeholder("x", {2, 4});
  b.matmul("dense", x, 4);
  Graph g = b.take();
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts;
  opts.num_shards = 1024;  // absurd group, nothing divides
  auto r = core::auto_parallel(tg, opts);
  EXPECT_TRUE(r.routed.valid);
}

TEST(Robustness, DisconnectedComponentsRoute) {
  // Two independent towers with no shared ops.
  GraphBuilder b("disc");
  NodeId a = b.placeholder("a/x", {8, 16});
  b.matmul("a/dense", a, 16);
  NodeId c = b.placeholder("b/x", {8, 16});
  b.matmul("b/dense", c, 16);
  Graph g = b.take();
  ir::TapGraph tg = ir::lower(g);
  auto routed = sharding::route_plan(tg, sharding::default_plan(tg, 8));
  EXPECT_TRUE(routed.valid) << routed.error;
}

TEST(Robustness, DeepChainOfGlueOps) {
  // 200 chained elementwise ops in one scope: SCC condensation and
  // routing must handle long unweighted chains.
  GraphBuilder b("chain");
  NodeId x = b.placeholder("x", {8, 8});
  for (int i = 0; i < 200; ++i)
    x = b.relu("deep/act_" + std::to_string(i), x);
  Graph g = b.take();
  ir::TapGraph tg = ir::lower(g);
  EXPECT_NO_THROW(tg.topo_order());
  auto routed = sharding::route_plan(tg, sharding::default_plan(tg, 4));
  EXPECT_TRUE(routed.valid);
}

TEST(Robustness, WideFanoutFromOneProducer) {
  GraphBuilder b("fan");
  NodeId x = b.placeholder("x", {8, 64});
  std::vector<NodeId> heads;
  for (int i = 0; i < 64; ++i)
    heads.push_back(b.matmul("head_" + std::to_string(i) + "/proj", x, 8));
  Graph g = b.take();
  ir::TapGraph tg = ir::lower(g);
  pruning::PruneResult pr = pruning::prune_graph(tg);
  // 64 identical heads fold into one family.
  EXPECT_EQ(pr.max_multiplicity(), 64);
  core::TapOptions opts;
  opts.num_shards = 8;
  auto r = core::auto_parallel(tg, opts);
  EXPECT_TRUE(r.routed.valid);
}

TEST(Robustness, RewriteOnDegenerateSingleShard) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  auto routed = sharding::route_plan(tg, sharding::default_plan(tg, 1));
  ASSERT_TRUE(routed.valid);
  auto rw = rewrite::rewrite_graph(g, tg, routed);
  // One device: no collectives at all.
  for (const Node& n : rw.parallel.nodes()) EXPECT_FALSE(is_comm(n.kind));
}

TEST(Robustness, SimulatorHandlesZeroCommPlans) {
  GraphBuilder b("local");
  NodeId x = b.placeholder("x", {8, 8});
  b.matmul("dense", x, 8);
  Graph g = b.take();
  ir::TapGraph tg = ir::lower(g);
  auto routed = sharding::route_plan(tg, sharding::default_plan(tg, 1));
  auto step = sim::simulate_step(tg, routed, 1,
                                 cost::ClusterSpec::v100_node());
  EXPECT_GT(step.iteration_s, 0.0);
  EXPECT_EQ(step.comm_s, 0.0);
}

TEST(Robustness, PruneHandlesNoRepetition) {
  // A graph where every scope is unique: nothing folds, everything still
  // covered.
  GraphBuilder b("unique");
  NodeId x = b.placeholder("x", {8, 16});
  x = b.matmul("alpha/proj", x, 32);
  x = b.relu("beta/act", x);
  x = b.matmul("gamma/out", x, 8);
  Graph g = b.take();
  ir::TapGraph tg = ir::lower(g);
  pruning::PruneResult pr = pruning::prune_graph(tg);
  EXPECT_EQ(pr.max_multiplicity(), 1);
  EXPECT_EQ(pr.covered_nodes(), tg.num_nodes());
}

TEST(Robustness, NamesWithManyComponentsPrune) {
  GraphBuilder b("deepname");
  NodeId x = b.placeholder("a/b/c/d/e/f/g/h/x", {4, 4});
  b.relu("a/b/c/d/e/f/g/h/act", x);
  Graph g = b.take();
  ir::TapGraph tg = ir::lower(g);
  EXPECT_NO_THROW(pruning::prune_graph(tg));
}

class ZooEndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(ZooEndToEnd, PlansValidateAndSimulate) {
  // table1_zoo() returns by value: copy the entry, a reference would
  // dangle once the temporary vector is destroyed.
  const models::ZooEntry entry =
      models::table1_zoo()[static_cast<std::size_t>(GetParam())];
  SCOPED_TRACE(entry.model);
  Graph g = entry.build();
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  auto r = core::auto_parallel(tg, opts);
  ASSERT_TRUE(r.routed.valid) << r.routed.error;
  auto step = sim::simulate_step(tg, r.routed, 8, opts.cluster);
  EXPECT_GT(step.iteration_s, 0.0);
  EXPECT_GT(step.memory.total(), 0);
}

std::string zoo_test_name(const ::testing::TestParamInfo<int>& info) {
  std::string name = models::table1_zoo()[static_cast<std::size_t>(
                         info.param)]
                         .model;
  std::string out;
  for (char c : name)
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllTable1Models, ZooEndToEnd,
                         ::testing::Range(0, 10), zoo_test_name);

}  // namespace
}  // namespace tap
