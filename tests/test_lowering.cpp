#include "ir/lowering.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/tap.h"
#include "models/models.h"
#include "report/report.h"
#include "service/wire.h"
#include "sim/simulator.h"
#include "util/strings.h"

namespace tap::ir {
namespace {

TEST(Lowering, TrimsAuxiliaries) {
  Graph g = models::build_transformer(models::t5_with_layers(2));
  LoweringStats stats;
  TapGraph tg = lower(g, {}, &stats);
  EXPECT_EQ(stats.original_nodes, g.num_nodes());
  EXPECT_GT(stats.trimmed_aux, 0u);
  for (const auto& n : tg.nodes()) {
    for (NodeId op : n.ops) {
      EXPECT_FALSE(is_aux(g.node(op).kind)) << g.node(op).name;
    }
  }
}

TEST(Lowering, ShrinksNodeCountSubstantially) {
  Graph g = models::build_transformer(models::t5_large());
  LoweringStats stats;
  TapGraph tg = lower(g, {}, &stats);
  // §4.2: T5-large shrinks from tens of thousands of ops to ~1k weight
  // variables. Our builder is coarser than TF but the ratio must be large.
  EXPECT_LT(tg.num_nodes() * 2, g.num_nodes());
  EXPECT_GT(stats.weight_variables, 100u);
  EXPECT_LT(stats.weight_variables, 2000u);
}

TEST(Lowering, ResultIsDagCoveringAllComputeOps) {
  Graph g = models::build_resnet(models::resnet50(1000));
  TapGraph tg = lower(g);
  EXPECT_NO_THROW(tg.topo_order());
  std::size_t covered = 0;
  for (const auto& n : tg.nodes()) covered += n.ops.size();
  std::size_t compute = 0;
  for (const Node& n : g.nodes())
    if (!is_aux(n.kind)) ++compute;
  EXPECT_EQ(covered, compute);
}

TEST(Lowering, WeightedClustersCarryParams) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  TapGraph tg = lower(g);
  GraphNodeId q = tg.find("t5_1l/encoder/block_0/mha/q");
  ASSERT_NE(q, kInvalidGraphNode);
  const GraphNode& n = tg.node(q);
  EXPECT_TRUE(n.has_weight());
  EXPECT_EQ(n.params, 1024 * 1024);
  EXPECT_EQ(n.primary_kind, OpKind::kMatMul);
}

TEST(Lowering, TotalParamsPreserved) {
  Graph g = models::build_transformer(models::t5_with_layers(2));
  TapGraph tg = lower(g);
  std::int64_t total = 0;
  for (const auto& n : tg.nodes()) total += n.params;
  EXPECT_EQ(total, g.total_params());
}

TEST(Lowering, OpLevelModeKeepsEveryOp) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  LoweringOptions opts;
  opts.cluster_by_scope = false;
  LoweringStats stats;
  TapGraph tg = lower(g, opts, &stats);
  std::size_t compute = 0;
  for (const Node& n : g.nodes())
    if (!is_aux(n.kind)) ++compute;
  EXPECT_EQ(tg.num_nodes(), compute);
}

TEST(Lowering, FingerprintsMatchAcrossIdenticalBlocks) {
  Graph g = models::build_transformer(models::t5_with_layers(3));
  TapGraph tg = lower(g);
  GraphNodeId q0 = tg.find("t5_3l/encoder/block_0/mha/q");
  GraphNodeId q1 = tg.find("t5_3l/encoder/block_1/mha/q");
  GraphNodeId wi0 = tg.find("t5_3l/encoder/block_0/ffn/wi");
  ASSERT_NE(q0, kInvalidGraphNode);
  ASSERT_NE(q1, kInvalidGraphNode);
  ASSERT_NE(wi0, kInvalidGraphNode);
  EXPECT_EQ(tg.node(q0).fingerprint, tg.node(q1).fingerprint);
  EXPECT_NE(tg.node(q0).fingerprint, tg.node(wi0).fingerprint);
}

TEST(Lowering, FingerprintIgnoresAbsoluteScope) {
  // The same op nested at different depths fingerprints identically when
  // hashed relative to its own scope.
  GraphBuilder b1("a");
  NodeId x1 = b1.placeholder("deep/scope/x", {4, 8});
  NodeId m1 = b1.matmul("deep/scope/dense/proj", x1, 16);
  GraphBuilder b2("b");
  NodeId x2 = b2.placeholder("other/x", {4, 8});
  NodeId m2 = b2.matmul("other/dense/proj", x2, 16);
  std::uint64_t f1 = op_fingerprint(b1.graph().node(m1), "deep/scope/dense");
  std::uint64_t f2 = op_fingerprint(b2.graph().node(m2), "other/dense");
  EXPECT_EQ(f1, f2);
}

TEST(Lowering, EdgesFollowProducerConsumer) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  TapGraph tg = lower(g);
  GraphNodeId q = tg.find("t5_1l/encoder/block_0/mha/q");
  ASSERT_NE(q, kInvalidGraphNode);
  EXPECT_FALSE(tg.node(q).inputs.empty());
  EXPECT_FALSE(tg.consumers(q).empty());
}

TEST(Lowering, MoeLayerIsOneCluster) {
  // The router/dispatch/expert-bank/combine chain cycles through the "moe"
  // scope, so SCC condensation folds the whole MoE layer into a single
  // GraphNode — exactly the "MoE layer" shared-subgraph granularity of
  // Table 1.
  models::MoeConfig cfg = models::widenet();
  cfg.num_layers = 1;
  cfg.moe_every = 1;
  Graph g = models::build_moe_transformer(cfg);
  TapGraph tg = lower(g);
  GraphNodeId moe = tg.find("widenet/encoder/block_0/moe");
  ASSERT_NE(moe, kInvalidGraphNode);
  const GraphNode& n = tg.node(moe);
  // ln + router + expert wi + expert wo weights all live in the cluster.
  EXPECT_GE(n.weight_ops.size(), 4u);
  EXPECT_EQ(n.primary_kind, OpKind::kMatMul);  // expert bank dominates
  const Node& biggest = g.node(n.weight_ops.front());
  (void)biggest;
  EXPECT_GT(n.params, cfg.num_experts * cfg.d_model * cfg.d_ff);
}

TEST(TapGraph, RootsLeavesAndStringification) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  TapGraph tg = lower(g);
  EXPECT_FALSE(tg.roots().empty());
  EXPECT_FALSE(tg.leaves().empty());
  EXPECT_NE(tg.to_string().find("GraphNodes"), std::string::npos);
}

TEST(TapGraph, RouteBytesMatchSourceGraph) {
  // The bytes finalize() stores for the router equal the ones it used to
  // count per route step from the source graph: the output tensor's, and
  // the trainable weights' — all, all but the primary (the most
  // parameters, the first of equals), and the primary's.
  int weighted = 0, with_secondary = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const TapGraph tg = lower(g);
    for (const GraphNode& n : tg.nodes()) {
      const RouteBytes& b = tg.route_bytes(n.id);
      ASSERT_EQ(b.output, n.output.size_bytes()) << n.name;
      std::int64_t all = 0, secondary = 0, primary_bytes = 0;
      const Node* primary = nullptr;
      for (NodeId wid : n.weight_ops) {
        const Node& w = g.node(wid);
        if (!primary || w.weight_params() > primary->weight_params())
          primary = &w;
      }
      for (NodeId wid : n.weight_ops) {
        const Node& w = g.node(wid);
        if (!w.trainable) continue;
        all += w.weight->size_bytes();
        if (&w == primary) {
          primary_bytes = w.weight->size_bytes();
        } else {
          secondary += w.weight->size_bytes();
        }
      }
      ASSERT_EQ(b.weight_grad, all) << n.name;
      ASSERT_EQ(b.secondary_grad, secondary) << n.name;
      ASSERT_EQ(b.primary_grad, primary_bytes) << n.name;
      weighted += n.has_weight() ? 1 : 0;
      with_secondary += secondary > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(weighted, 1000);
  EXPECT_GT(with_secondary, 0);
}

/// What the serving tier answers for one spec: the plan bytes, the
/// explain report bytes and the simulated step of the winning plan.
struct Served {
  std::string plan;
  std::string report;
  double step_s = 0.0;
};

Served serve(const TapGraph& tg, const service::ModelSpec& spec) {
  const core::TapOptions o = service::options_for_spec(spec, 1);
  const core::TapResult r = spec.sweep()
                                ? core::auto_parallel_best_mesh(tg, o)
                                : core::auto_parallel(tg, o);
  Served s;
  s.plan = service::plan_response_json(
      tg, service::make_plan_key(tg, o, spec.sweep()), r);
  s.report = report::to_json(report::build_report(tg, r, o));
  s.step_s =
      sim::simulate_step(tg, r.routed, r.best_plan.num_shards, o.cluster)
          .iteration_s;
  return s;
}

TEST(TapGraph, OutlivesItsSourceGraph) {
  // The plan server frees each Graph once lowered: a TapGraph whose Graph
  // is gone plans, reports and simulates exactly like one whose Graph is
  // alive (and under ASan, any read of the freed Graph fails the test).
  const struct {
    const char* model;
    int layers;
  } zoo[] = {{"t5", 8},   {"t5", 24}, {"t5", 48},       {"bert", 24},
             {"gpt3", 8}, {"moe", 8}, {"resnet50", 50}};
  for (const auto& row : zoo) {
    service::ModelSpec spec;  // 2 nodes x 8 GPUs
    spec.model = row.model;
    spec.layers = row.layers;
    SCOPED_TRACE(spec.model + "/" + std::to_string(spec.layers));
    auto g = std::make_unique<Graph>(service::build_spec_model(spec));
    const std::string name = g->name();
    const TapGraph orphan = lower(*g);
    g.reset();
    EXPECT_EQ(orphan.name(), name);
    const Graph live_graph = service::build_spec_model(spec);
    const TapGraph live = lower(live_graph);
    for (const auto& [dp, tp] : {std::pair{0, 0}, std::pair{2, 8}}) {
      spec.dp = dp;
      spec.tp = tp;
      const Served a = serve(orphan, spec);
      const Served b = serve(live, spec);
      EXPECT_EQ(a.plan, b.plan) << spec.dp << "x" << spec.tp;
      EXPECT_EQ(a.report, b.report) << spec.dp << "x" << spec.tp;
      EXPECT_EQ(a.step_s, b.step_s) << spec.dp << "x" << spec.tp;
    }
  }
}

}  // namespace
}  // namespace tap::ir
