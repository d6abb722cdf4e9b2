#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"

namespace tap {
namespace {

TensorSpec f32(TensorShape s) { return {std::move(s), DType::kF32}; }

Graph diamond() {
  // a -> b -> d, a -> c -> d
  Graph g("diamond");
  NodeId a = g.add("a", OpKind::kPlaceholder, {}, f32({4, 4}));
  NodeId b = g.add("b", OpKind::kRelu, {a}, f32({4, 4}));
  NodeId c = g.add("c", OpKind::kGelu, {a}, f32({4, 4}));
  g.add("d", OpKind::kAdd, {b, c}, f32({4, 4}));
  return g;
}

TEST(Graph, AddAndLookup) {
  Graph g = diamond();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_NE(g.find("a"), kInvalidNode);
  EXPECT_EQ(g.find("nope"), kInvalidNode);
  EXPECT_TRUE(g.contains("d"));
}

TEST(Graph, FindsEveryNameAcrossIndexGrowth) {
  // The name index stores ids only and grows by rehashing; every name
  // resolves to its id at every size, and a copy resolves the same.
  Graph g;
  for (int i = 0; i < 1000; ++i) {
    g.add("block_" + std::to_string(i) + "/op", OpKind::kPlaceholder, {},
          f32({1}));
    ASSERT_EQ(g.find("block_" + std::to_string(i) + "/op"), i);
  }
  const Graph copy = g;
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "block_" + std::to_string(i) + "/op";
    EXPECT_EQ(g.find(name), i);
    EXPECT_EQ(copy.find(name), i);
  }
  EXPECT_EQ(g.find("block_1000/op"), kInvalidNode);
  EXPECT_EQ(g.find("block_1/o"), kInvalidNode);
  EXPECT_THROW(g.add("block_7/op", OpKind::kRelu, {0}, f32({1})), CheckError);
}

TEST(Graph, DuplicateNameThrows) {
  Graph g;
  g.add("x", OpKind::kPlaceholder, {}, f32({1}));
  EXPECT_THROW(g.add("x", OpKind::kRelu, {0}, f32({1})), CheckError);
}

TEST(Graph, UnknownInputThrows) {
  Graph g;
  EXPECT_THROW(g.add("x", OpKind::kRelu, {5}, f32({1})), CheckError);
}

TEST(Graph, EmptyNameThrows) {
  Graph g;
  EXPECT_THROW(g.add("", OpKind::kRelu, {}, f32({1})), CheckError);
}

TEST(Graph, Consumers) {
  Graph g = diamond();
  NodeId a = g.find("a");
  auto cons = g.consumers(a);
  EXPECT_EQ(cons.size(), 2u);
  EXPECT_TRUE(g.consumers(g.find("d")).empty());
}

TEST(Graph, RootsAndLeaves) {
  Graph g = diamond();
  EXPECT_EQ(g.roots(), std::vector<NodeId>{g.find("a")});
  EXPECT_EQ(g.leaves(), std::vector<NodeId>{g.find("d")});
}

TEST(Graph, TopoOrderRespectsEdges) {
  Graph g = diamond();
  auto order = g.topo_order();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](NodeId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(g.find("a")), pos(g.find("b")));
  EXPECT_LT(pos(g.find("a")), pos(g.find("c")));
  EXPECT_LT(pos(g.find("b")), pos(g.find("d")));
  EXPECT_LT(pos(g.find("c")), pos(g.find("d")));
}

TEST(Graph, ValidatePasses) {
  Graph g = diamond();
  EXPECT_NO_THROW(g.validate());
}

TEST(Graph, ValidateRejectsWeightOnWrongKind) {
  Graph g;
  Node n;
  n.name = "r";
  n.kind = OpKind::kRelu;
  n.output = f32({2});
  n.weight = f32({2});
  g.add_node(std::move(n));
  EXPECT_THROW(g.validate(), CheckError);
}

TEST(Graph, WeightAccounting) {
  Graph g;
  NodeId x = g.add("x", OpKind::kPlaceholder, {}, f32({4, 8}));
  Node mm;
  mm.name = "dense";
  mm.kind = OpKind::kMatMul;
  mm.inputs = {x};
  mm.output = f32({4, 16});
  mm.weight = f32({8, 16});
  g.add_node(std::move(mm));
  Node frozen;
  frozen.name = "emb";
  frozen.kind = OpKind::kEmbedding;
  frozen.inputs = {x};
  frozen.output = f32({4, 8, 3});
  frozen.weight = f32({100, 3});
  frozen.trainable = false;
  g.add_node(std::move(frozen));

  EXPECT_EQ(g.weight_nodes().size(), 2u);
  EXPECT_EQ(g.total_params(), 8 * 16);
  EXPECT_EQ(g.total_params_all(), 8 * 16 + 300);
}

TEST(Graph, MaxNameDepth) {
  Graph g;
  g.add("a", OpKind::kPlaceholder, {}, f32({1}));
  g.add("m/l/x", OpKind::kRelu, {0}, f32({1}));
  EXPECT_EQ(g.max_name_depth(), 3u);
}

TEST(Graph, MutationInvalidatesConsumers) {
  Graph g = diamond();
  (void)g.consumers(g.find("a"));
  g.add("e", OpKind::kRelu, {g.find("d")}, f32({4, 4}));
  EXPECT_EQ(g.consumers(g.find("d")).size(), 1u);
}

Graph ladder(int rungs) {
  // A chain of diamonds: every node but the last has consumers.
  Graph g("ladder");
  NodeId prev = g.add("in", OpKind::kPlaceholder, {}, f32({4, 4}));
  for (int i = 0; i < rungs; ++i) {
    const std::string p = "r" + std::to_string(i) + "/";
    NodeId b = g.add(p + "b", OpKind::kRelu, {prev}, f32({4, 4}));
    NodeId c = g.add(p + "c", OpKind::kGelu, {prev}, f32({4, 4}));
    prev = g.add(p + "d", OpKind::kAdd, {b, c}, f32({4, 4}));
  }
  return g;
}

TEST(Graph, ConcurrentConstReadsAreSafe) {
  // The const accessors must not fill a cache on first use: threads that
  // share a freshly built graph read it with no synchronization (a TSan
  // build reports any write).
  const Graph reference = ladder(64);
  const std::vector<NodeId> want_order = reference.topo_order();
  const std::vector<NodeId> want_leaves = reference.leaves();

  const Graph g = ladder(64);
  std::vector<char> ok(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < ok.size(); ++t) {
    threads.emplace_back([&, t] {
      bool same = g.topo_order() == want_order && g.leaves() == want_leaves;
      for (NodeId id = 0; id < static_cast<NodeId>(g.num_nodes()); ++id)
        same = same && g.consumers(id) == reference.consumers(id);
      ok[t] = same ? 1 : 0;
    });
  }
  for (std::thread& th : threads) th.join();
  for (char v : ok) EXPECT_EQ(v, 1);
}

TEST(Graph, ToStringMentionsCounts) {
  Graph g = diamond();
  std::string s = g.to_string();
  EXPECT_NE(s.find("4 nodes"), std::string::npos);
}

TEST(OpKind, Predicates) {
  EXPECT_TRUE(is_comm(OpKind::kAllReduce));
  EXPECT_FALSE(is_comm(OpKind::kMatMul));
  EXPECT_TRUE(is_aux(OpKind::kVariableInit));
  EXPECT_TRUE(is_aux(OpKind::kApplyAdam));
  EXPECT_FALSE(is_aux(OpKind::kConv2D));
  EXPECT_TRUE(is_elementwise(OpKind::kGelu));
  EXPECT_FALSE(is_elementwise(OpKind::kSoftmax));
  EXPECT_TRUE(is_compute(OpKind::kSoftmax));
  EXPECT_FALSE(is_compute(OpKind::kAllGather));
  EXPECT_TRUE(may_have_weight(OpKind::kMatMul));
  EXPECT_FALSE(may_have_weight(OpKind::kRelu));
}

TEST(OpKind, NamesAreUniqueAndNonEmpty) {
  // Spot-check representative kinds.
  EXPECT_EQ(op_kind_name(OpKind::kMatMul), "MatMul");
  EXPECT_EQ(op_kind_name(OpKind::kAllReduce), "AllReduce");
  EXPECT_EQ(op_kind_name(OpKind::kSaveCheckpoint), "SaveCheckpoint");
}

}  // namespace
}  // namespace tap
