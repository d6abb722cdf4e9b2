#include "ir/lowering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "core/tap.h"
#include "front_end_digest.h"
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

/// Every scope string of `tg`, checked against the node names: each
/// node name and each of its '/'-prefixes is exactly one scope, with its
/// parent, depth and lexicographic rank.
void expect_scopes_match_names(const TapGraph& tg) {
  std::map<std::string, ScopeId> want;  // every prefix, sorted
  for (const GraphNode& n : tg.nodes()) {
    for (std::size_t i = 0; i < n.name.size(); ++i)
      if (n.name[i] == '/') want.emplace(n.name.substr(0, i), kNoScope);
    want.emplace(n.name, kNoScope);
  }
  const std::vector<Scope>& scopes = tg.scopes();
  ASSERT_EQ(scopes.size(), want.size());
  for (std::size_t s = 0; s < scopes.size(); ++s) {
    const std::string name(tg.scope_name(static_cast<ScopeId>(s)));
    ASSERT_TRUE(want.count(name)) << name;
    EXPECT_EQ(want[name], kNoScope) << "twice: " << name;
    want[name] = static_cast<ScopeId>(s);
  }
  std::uint32_t rank = 0;
  for (const auto& [name, s] : want) {
    const Scope& sc = scopes[static_cast<std::size_t>(s)];
    EXPECT_EQ(sc.rank, rank++) << name;
    EXPECT_EQ(sc.depth, std::count(name.begin(), name.end(), '/') + 1) << name;
    const std::size_t slash = name.rfind('/');
    if (slash == std::string::npos) {
      EXPECT_EQ(sc.parent, kNoScope) << name;
    } else {
      EXPECT_EQ(tg.scope_name(sc.parent), name.substr(0, slash)) << name;
    }
    const std::string& owner = tg.node(sc.node).name;
    EXPECT_TRUE(owner.size() == sc.length || owner[sc.length] == '/')
        << name << " in " << owner;
    // find() answers for node names only.
    const GraphNodeId named = tg.find(name);
    EXPECT_EQ(named, owner == name ? sc.node : kInvalidGraphNode) << name;
  }
  for (const GraphNode& n : tg.nodes())
    EXPECT_EQ(tg.scope_name(tg.scope_of(n.id)), n.name);
}

TEST(TapGraph, ScopesMatchNodeNames) {
  for (const char* model : {"t5", "moe", "resnet50"}) {
    SCOPED_TRACE(model);
    service::ModelSpec spec;
    spec.model = model;
    spec.layers = 4;
    expect_scopes_match_names(lower(service::build_spec_model(spec)));
  }
  // Names whose order is not the order of a walk of the name tree: '#',
  // '-' and '.' sort before '/', so "a/b#1" comes between "a/b" and
  // "a/b/c", and "a-c/x" before "a/b". An empty component too.
  Graph g("scopes");
  const TensorSpec spec{TensorShape{4, 4}, DType::kF32};
  const NodeId in = g.add("in", OpKind::kRelu, {}, spec);
  for (const char* name : {"a/b/x", "a/b/y", "a/b/c/z", "a-c/x/q", "a/b.d/q",
                           "/x/q", "a//b/q"})
    g.add(name, OpKind::kRelu, {in}, spec);
  const TapGraph tg = lower(g);
  ASSERT_NE(tg.find("a/b#1"), kInvalidGraphNode);  // a/b's second component
  expect_scopes_match_names(tg);
}

TEST(Lowering, LaterComponentSkipsALiteralSuffixedScope) {
  // Scope a/b has two components, and an op scope is literally "a/b#1":
  // the scope keeps its name and a/b's second component takes "a/b#2".
  Graph g("suffixes");
  const TensorSpec spec{TensorShape{4, 4}, DType::kF32};
  const NodeId in = g.add("in", OpKind::kRelu, {}, spec);
  const NodeId x = g.add("a/b/x", OpKind::kRelu, {in}, spec);
  const NodeId y = g.add("a/b/y", OpKind::kRelu, {in}, spec);
  const NodeId q = g.add("a/b#1/q", OpKind::kRelu, {in}, spec);
  const TapGraph tg = lower(g);
  ASSERT_EQ(tg.num_nodes(), 4u);
  auto owner = [&](NodeId op) {
    for (const GraphNode& n : tg.nodes())
      if (std::find(n.ops.begin(), n.ops.end(), op) != n.ops.end())
        return n.name;
    return std::string();
  };
  EXPECT_EQ(owner(x), "a/b");
  EXPECT_EQ(owner(y), "a/b#2");
  EXPECT_EQ(owner(q), "a/b#1");
  expect_scopes_match_names(tg);
}

TEST(Lowering, CondensesScopeCycles) {
  // a/z reads a/x directly and through a/sub/y, so the component {a/x,
  // a/z} of scope "a" and the one of "a/sub" form a cycle: they condense
  // into one node named by their common scope.
  Graph g("cycle");
  const TensorSpec spec{TensorShape{4, 4}, DType::kF32};
  const NodeId x = g.add("a/x", OpKind::kRelu, {}, spec);
  const NodeId y = g.add("a/sub/y", OpKind::kRelu, {x}, spec);
  g.add("a/z", OpKind::kAdd, {x, y}, spec);
  const TapGraph tg = lower(g);
  ASSERT_EQ(tg.num_nodes(), 1u);
  EXPECT_EQ(tg.node(0).name, "a");
  EXPECT_EQ(tg.node(0).ops, (std::vector<NodeId>{0, 1, 2}));
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

TEST(Lowering, ZooMatchesRecordedDigests) {
  // testing::tap_graph_digest of every lowered front-end model, recorded
  // before the scope table and the fingerprint memo went in: lowering
  // must keep every TapGraph bit for bit.
  const std::map<std::string, std::string> recorded = {
      {"BERT", "b4b522e80fbaf30e"},
      {"CLIP-Base", "8424855514c564a9"},
      {"GPT-3", "618d059721e8e6b6"},
      {"ResNet50", "f1d9dec51b4ee253"},
      {"Switch Transformer", "be7a52201dca931f"},
      {"T5-Large", "f10906dd19ffdbcb"},
      {"V-MoE", "ac9b9a1bbf03bd51"},
      {"ViT-Huge", "ea95b001c7668784"},
      {"WideNet", "f5967862da8f4665"},
      {"bert_24", "b4b522e80fbaf30e"},
      {"gpt3_8", "ef98d1f8e5d6d600"},
      {"moe_8", "edc5eba9f76f9123"},
      {"resnet50_50", "6589ab69dddc9c52"},
      {"t5_192", "204631d163df2b95"},
      {"t5_24", "1e4b8fa43979c968"},
      {"t5_2_per_op", "30452666ae1d873e"},
      {"t5_48", "276926943ce1a14c"},
      {"t5_8", "b9fb8266899b4ea4"},
      {"wav2vec 2.0", "48f0e44c5a1b15fa"},
  };
  std::map<std::string, std::string> got;
  for (const testing::FrontEndModel& m : testing::front_end_zoo())
    got[m.name] = testing::tap_graph_digest(lower(m.graph));
  LoweringOptions per_op;
  per_op.cluster_by_scope = false;
  got["t5_2_per_op"] = testing::tap_graph_digest(
      lower(models::build_transformer(models::t5_with_layers(2)), per_op));
  EXPECT_EQ(got, recorded);
}

}  // namespace
}  // namespace tap::ir
