#include "rewrite/rewrite.h"

#include <gtest/gtest.h>

#include "ir/lowering.h"
#include "models/models.h"
#include "rewrite/packing.h"
#include "util/check.h"

namespace tap::rewrite {
namespace {

struct Fixture {
  Graph g;
  ir::TapGraph tg;
  explicit Fixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}

  sharding::RoutedPlan route_named(int shards,
                                   const std::string& node,
                                   const std::string& pattern) {
    sharding::ShardingPlan plan = sharding::default_plan(tg, shards);
    if (!node.empty()) {
      auto id = tg.find(node);
      TAP_CHECK(id != ir::kInvalidGraphNode) << node;
      auto pats = sharding::patterns_for(tg, id, shards, 1);
      for (std::size_t i = 0; i < pats.size(); ++i)
        if (pats[i].name == pattern)
          plan.choice[static_cast<std::size_t>(id)] = static_cast<int>(i);
    }
    return sharding::route_plan(tg, plan);
  }
};

TEST(Rewrite, DataParallelInsertsOnlyGradAllReduces) {
  Fixture f(models::build_transformer(models::t5_with_layers(1)));
  auto routed = f.route_named(8, "", "");
  ASSERT_TRUE(routed.valid);
  RewriteResult r = rewrite_graph(f.g, f.tg, routed);
  // One AllReduce per trainable weight tensor, no forward collectives.
  std::size_t grad_comm = 0, fwd_comm = 0;
  for (const Node& n : r.parallel.nodes()) {
    if (!is_comm(n.kind)) continue;
    if (n.name.find("/grad/") != std::string::npos) {
      ++grad_comm;
    } else {
      ++fwd_comm;
    }
  }
  EXPECT_EQ(fwd_comm, 0u);
  EXPECT_EQ(grad_comm, f.g.weight_nodes().size());
  EXPECT_EQ(r.gradients.size(), grad_comm);
}

TEST(Rewrite, SplitRowInsertsForwardAllReduceAfterMatMul) {
  Fixture f(models::build_transformer(models::t5_with_layers(1)));
  auto routed = f.route_named(8, "t5_1l/encoder/block_0/ffn/wo", "split_row");
  ASSERT_TRUE(routed.valid) << routed.error;
  RewriteResult r = rewrite_graph(f.g, f.tg, routed);
  NodeId comm =
      r.parallel.find("t5_1l/encoder/block_0/ffn/wo/proj/AllReduce");
  ASSERT_NE(comm, kInvalidNode);
  const Node& c = r.parallel.node(comm);
  EXPECT_EQ(c.kind, OpKind::kAllReduce);
  // The AllReduce consumes the matmul and feeds its former consumers.
  NodeId mm = r.parallel.find("t5_1l/encoder/block_0/ffn/wo/proj");
  ASSERT_NE(mm, kInvalidNode);
  EXPECT_EQ(c.inputs, std::vector<NodeId>{mm});
  EXPECT_FALSE(r.parallel.consumers(comm).empty());
  // Split weights keep their gradient local: no grad AllReduce for wo.
  EXPECT_EQ(r.parallel.find("t5_1l/encoder/block_0/ffn/wo/proj/grad/AllReduce"),
            kInvalidNode);
}

TEST(Rewrite, ReshardInsertsConversionNode) {
  Fixture f(models::build_transformer(models::t5_with_layers(1)));
  // split_col output S(-1) flowing into a dp consumer forces a reshard.
  auto routed = f.route_named(8, "t5_1l/encoder/block_0/ffn/wi", "split_col");
  ASSERT_TRUE(routed.valid) << routed.error;
  RewriteResult r = rewrite_graph(f.g, f.tg, routed);
  bool reshard = false;
  for (const Node& n : r.parallel.nodes())
    reshard |= n.name.find("/reshard/") != std::string::npos;
  EXPECT_TRUE(reshard);
}

TEST(Rewrite, ShardingAnnotationsPresent) {
  Fixture f(models::build_transformer(models::t5_with_layers(1)));
  auto routed = f.route_named(8, "t5_1l/encoder/block_0/mha/q", "split_col");
  ASSERT_TRUE(routed.valid);
  RewriteResult r = rewrite_graph(f.g, f.tg, routed);
  NodeId q = r.parallel.find("t5_1l/encoder/block_0/mha/q/proj");
  ASSERT_NE(q, kInvalidNode);
  const Node& n = r.parallel.node(q);
  EXPECT_EQ(n.attr_or("group", 0), 8);
  EXPECT_EQ(n.attr_or("weight_shard_axis", -99), 1);  // [K,N] split on N
  EXPECT_EQ(n.attr_or("shard_axis", -99),
            n.output.shape.rank() - 1);
}

TEST(Rewrite, AuxRestoredAndOptional) {
  Fixture f(models::build_transformer(models::t5_with_layers(1)));
  auto routed = f.route_named(8, "", "");
  RewriteResult with = rewrite_graph(f.g, f.tg, routed, true);
  RewriteResult without = rewrite_graph(f.g, f.tg, routed, false);
  EXPECT_GT(with.aux_restored, 0u);
  EXPECT_EQ(without.aux_restored, 0u);
  EXPECT_TRUE(with.parallel.contains("save/checkpoint"));
  EXPECT_FALSE(without.parallel.contains("save/checkpoint"));
}

TEST(Rewrite, ParallelGraphValidates) {
  Fixture f(models::build_transformer(models::t5_with_layers(2)));
  auto routed = f.route_named(8, "t5_2l/encoder/block_0/mha/o", "split_row");
  ASSERT_TRUE(routed.valid);
  RewriteResult r = rewrite_graph(f.g, f.tg, routed);
  EXPECT_NO_THROW(r.parallel.validate());
  EXPECT_GT(r.parallel.num_nodes(), f.g.num_nodes());
}

TEST(Rewrite, GradientsInBackwardOrder) {
  Fixture f(models::build_transformer(models::t5_with_layers(1)));
  auto routed = f.route_named(8, "", "");
  RewriteResult r = rewrite_graph(f.g, f.tg, routed);
  ASSERT_GT(r.gradients.size(), 2u);
  // Backward order: the head projection's gradient materializes before the
  // encoder embedding's.
  std::size_t head_pos = r.gradients.size(), embed_pos = 0;
  for (std::size_t i = 0; i < r.gradients.size(); ++i) {
    if (r.gradients[i].name.find("head/lm") != std::string::npos)
      head_pos = i;
    if (r.gradients[i].name.find("encoder/embed") != std::string::npos)
      embed_pos = i;
  }
  EXPECT_LT(head_pos, embed_pos);
}

TEST(Rewrite, InvalidPlanRefused) {
  Fixture f(models::build_transformer(models::t5_with_layers(1)));
  sharding::ShardingPlan plan = sharding::default_plan(f.tg, 8);
  plan.choice[0] = 77;
  auto routed = sharding::route_plan(f.tg, plan);
  EXPECT_THROW(rewrite_graph(f.g, f.tg, routed), CheckError);
}

// ---------------------------------------------------------------------------
// Gradient packing
// ---------------------------------------------------------------------------

std::vector<GradientTensor> grads(std::vector<std::int64_t> sizes) {
  std::vector<GradientTensor> out;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    out.push_back({"g" + std::to_string(i), sizes[i]});
  return out;
}

TEST(Packing, SmallGradientsFuse) {
  PackingOptions opts;
  opts.fuse_threshold = 100;
  opts.chunk_bytes = 1000;
  auto r = pack_gradients(grads({10, 20, 30, 40}), opts);
  EXPECT_EQ(r.messages_before, 4u);
  EXPECT_EQ(r.messages_after, 1u);
  EXPECT_EQ(r.fused_gradients, 4u);
  EXPECT_TRUE(r.buckets[0].fused);
  EXPECT_EQ(r.buckets[0].bytes, 100);
}

TEST(Packing, LargeGradientsTravelAlone) {
  PackingOptions opts;
  opts.fuse_threshold = 100;
  opts.chunk_bytes = 1000;
  auto r = pack_gradients(grads({500, 10, 600, 20}), opts);
  // 500 and 600 travel alone; {10, 20} fuse across them.
  EXPECT_EQ(r.messages_after, 3u);
  EXPECT_EQ(r.fused_gradients, 2u);
}

TEST(Packing, ChunkSizeCapsBuckets) {
  PackingOptions opts;
  opts.fuse_threshold = 100;
  opts.chunk_bytes = 150;
  auto r = pack_gradients(grads({60, 60, 60, 60}), opts);
  // 60+60 = 120 fits; adding another 60 would exceed 150 -> new bucket.
  EXPECT_EQ(r.messages_after, 2u);
  EXPECT_EQ(r.max_message_bytes(), 120);
}

TEST(Packing, PreservesTotalBytes) {
  PackingOptions opts;
  opts.fuse_threshold = 1 << 20;
  opts.chunk_bytes = 4 << 20;
  auto g = grads({123, 456789, 1 << 22, 7, 999});
  auto r = pack_gradients(g, opts);
  std::int64_t want = 0;
  for (const auto& x : g) want += x.bytes;
  EXPECT_EQ(r.total_bytes(), want);
  // Every gradient lands in exactly one bucket.
  std::vector<bool> seen(g.size(), false);
  for (const auto& b : r.buckets)
    for (std::size_t i : b.gradient_indices) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Packing, RealModelReducesMessageCount) {
  Fixture f(models::build_transformer(models::t5_with_layers(4)));
  auto routed =
      sharding::route_plan(f.tg, sharding::default_plan(f.tg, 8));
  RewriteResult r = rewrite_graph(f.g, f.tg, routed);
  PackingOptions opts;
  opts.fuse_threshold = 8ll << 20;  // fold the 4 MiB attention grads too
  opts.chunk_bytes = 32ll << 20;
  auto packed = pack_gradients(r.gradients, opts);
  // Tiny LayerNorm grads and the 4 MiB projections collapse into buckets.
  EXPECT_LT(packed.messages_after, packed.messages_before / 2);
  EXPECT_GT(packed.fused_gradients, 0u);
}

TEST(Packing, BadOptionsThrow) {
  PackingOptions opts;
  opts.fuse_threshold = 0;
  EXPECT_THROW(pack_gradients({}, opts), CheckError);
  opts.fuse_threshold = 100;
  opts.chunk_bytes = 50;
  EXPECT_THROW(pack_gradients({}, opts), CheckError);
}

}  // namespace
}  // namespace tap::rewrite
