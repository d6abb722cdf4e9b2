#include "sharding/pattern.h"

#include <gtest/gtest.h>

#include "ir/lowering.h"
#include "models/models.h"

namespace tap::sharding {
namespace {

using ir::TapGraph;

struct Fixture {
  Graph g;
  TapGraph tg;
  explicit Fixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}
};

Fixture t5_fixture(int layers = 1) {
  return Fixture(models::build_transformer(models::t5_with_layers(layers)));
}

const ShardingPattern* find_pattern(const std::vector<ShardingPattern>& pats,
                                    const std::string& name) {
  for (const auto& p : pats)
    if (p.name == name) return &p;
  return nullptr;
}

TEST(ShardSpec, LayoutBasics) {
  EXPECT_TRUE(ShardSpec::replicate().is_replicate());
  EXPECT_TRUE(ShardSpec::split(1).is_split());
  EXPECT_EQ(ShardSpec::split(-1).resolved_axis(3), 2);
  EXPECT_TRUE(ShardSpec::split(-1).same_layout(ShardSpec::split(2), 3));
  EXPECT_FALSE(ShardSpec::split(0).same_layout(ShardSpec::split(1), 3));
  EXPECT_TRUE(ShardSpec::replicate().same_layout(ShardSpec::replicate(), 3));
}

TEST(ShardSpec, FitsAndLocalShape) {
  TensorShape s{16, 1000};
  EXPECT_TRUE(ShardSpec::split(0).fits(s, 8));
  EXPECT_FALSE(ShardSpec::split(1).fits(s, 16));  // 1000 % 16 != 0
  EXPECT_TRUE(ShardSpec::replicate().fits(s, 16));
  EXPECT_EQ(ShardSpec::split(0).local_shape(s, 8), TensorShape({2, 1000}));
  EXPECT_EQ(ShardSpec::replicate().local_shape(s, 8), s);
}

TEST(Patterns, MatMulHasThreeOptions) {
  Fixture f = t5_fixture();
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  ASSERT_NE(q, ir::kInvalidGraphNode);
  auto pats = patterns_for(f.tg, q, 8, 1);
  ASSERT_EQ(pats.size(), 3u);  // the "3^V" of §2.3.3
  EXPECT_NE(find_pattern(pats, "dp"), nullptr);
  EXPECT_NE(find_pattern(pats, "split_row"), nullptr);
  EXPECT_NE(find_pattern(pats, "split_col"), nullptr);
}

TEST(Patterns, SplitRowRequiresAllReduce) {
  Fixture f = t5_fixture();
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  auto pats = patterns_for(f.tg, q, 8, 1);
  const auto* row = find_pattern(pats, "split_row");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->forward_comm, Collective::kAllReduce);
  EXPECT_EQ(row->weight, ShardSpec::split(0));
  ASSERT_TRUE(row->input.has_value());
  EXPECT_EQ(*row->input, ShardSpec::split(-1));
  ASSERT_TRUE(row->output.has_value());
  EXPECT_TRUE(row->output->is_replicate());
}

TEST(Patterns, SplitColShardsOutputNoForwardComm) {
  Fixture f = t5_fixture();
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  auto pats = patterns_for(f.tg, q, 8, 1);
  const auto* col = find_pattern(pats, "split_col");
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->forward_comm, Collective::kNone);
  EXPECT_EQ(col->backward_comm, Collective::kAllReduce);
  EXPECT_EQ(col->backward_subject, BwdSubject::kInputGrad);
  EXPECT_EQ(*col->output, ShardSpec::split(-1));
}

TEST(Patterns, DpReplicatesWeightAndAllReducesGrads) {
  Fixture f = t5_fixture();
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  auto pats = patterns_for(f.tg, q, 8, 1);
  const auto* dp = find_pattern(pats, "dp");
  ASSERT_NE(dp, nullptr);
  EXPECT_TRUE(dp->replicates_weight());
  EXPECT_EQ(dp->backward_comm, Collective::kAllReduce);
  EXPECT_EQ(dp->backward_subject, BwdSubject::kWeightGrad);
}

TEST(Patterns, LayerNormIsReplicateOnly) {
  Fixture f = t5_fixture();
  auto ln = f.tg.find("t5_1l/encoder/block_0/mha");  // cluster holding the LN
  ASSERT_NE(ln, ir::kInvalidGraphNode);
  ASSERT_TRUE(f.tg.node(ln).has_weight());
  auto pats = patterns_for(f.tg, ln, 8, 1);
  ASSERT_EQ(pats.size(), 1u);
  EXPECT_EQ(pats[0].name, "replicate");
}

TEST(Patterns, GlueNodesFollow) {
  Fixture f = t5_fixture();
  // The scores/softmax/context chain is unweighted glue.
  for (const auto& n : f.tg.nodes()) {
    if (n.has_weight()) continue;
    auto pats = patterns_for(f.tg, n.id, 8, 1);
    ASSERT_EQ(pats.size(), 1u);
    EXPECT_EQ(pats[0].name, "follow");
  }
}

TEST(Patterns, DivisibilityFiltersOptions) {
  // A 1000-class FC over 16 shards: 1000 % 16 != 0 so split_col must be
  // absent; 2048 % 16 == 0 so split_row stays.
  Graph g = models::build_resnet(models::resnet50(1000));
  TapGraph tg = ir::lower(g);
  auto fc = tg.find("resnet50/head/fc");
  ASSERT_NE(fc, ir::kInvalidGraphNode);
  auto pats = patterns_for(tg, fc, 16, 1);
  EXPECT_EQ(find_pattern(pats, "split_col"), nullptr);
  EXPECT_NE(find_pattern(pats, "split_row"), nullptr);
}

TEST(Patterns, SingleShardDegeneratesToReplicate) {
  Fixture f = t5_fixture();
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  auto pats = patterns_for(f.tg, q, 1, 1);
  ASSERT_EQ(pats.size(), 1u);
  EXPECT_EQ(pats[0].name, "replicate");
}

TEST(Patterns, EmbeddingOptions) {
  Fixture f = t5_fixture();
  auto emb = f.tg.find("t5_1l/encoder/embed");
  ASSERT_NE(emb, ir::kInvalidGraphNode);
  auto pats = patterns_for(f.tg, emb, 8, 1);
  EXPECT_NE(find_pattern(pats, "split_vocab"), nullptr);
  EXPECT_NE(find_pattern(pats, "split_hidden"), nullptr);
  const auto* v = find_pattern(pats, "split_vocab");
  EXPECT_EQ(v->forward_comm, Collective::kAllReduce);
}

TEST(Patterns, ConvOptions) {
  Graph g = models::build_resnet(models::resnet50(1024));
  TapGraph tg = ir::lower(g);
  auto conv = tg.find("resnet50/stage_1/block_1/conv_2");
  ASSERT_NE(conv, ir::kInvalidGraphNode);
  auto pats = patterns_for(tg, conv, 8, 1);
  EXPECT_NE(find_pattern(pats, "dp"), nullptr);
  EXPECT_NE(find_pattern(pats, "split_cout"), nullptr);
  EXPECT_NE(find_pattern(pats, "split_cin"), nullptr);
}

TEST(Patterns, MoeExpertParallelUsesAllToAll) {
  models::MoeConfig cfg = models::widenet();
  cfg.num_layers = 1;
  cfg.moe_every = 1;
  Graph g = models::build_moe_transformer(cfg);
  TapGraph tg = ir::lower(g);
  auto moe = tg.find("widenet/encoder/block_0/moe");
  ASSERT_NE(moe, ir::kInvalidGraphNode);
  auto pats = patterns_for(tg, moe, 8, 1);
  const auto* ep = find_pattern(pats, "expert_parallel");
  ASSERT_NE(ep, nullptr);
  EXPECT_EQ(ep->forward_comm, Collective::kAllToAll);
  EXPECT_EQ(ep->forward_comm_count, 2);  // dispatch + combine
  EXPECT_EQ(ep->weight, ShardSpec::split(0));
}

TEST(Patterns, RejectsLastAxisSplitPredicates) {
  EXPECT_TRUE(rejects_last_axis_split(OpKind::kSoftmax));
  EXPECT_TRUE(rejects_last_axis_split(OpKind::kLayerNorm));
  EXPECT_TRUE(rejects_last_axis_split(OpKind::kCrossEntropy));
  EXPECT_FALSE(rejects_last_axis_split(OpKind::kMatMul));
  EXPECT_FALSE(rejects_last_axis_split(OpKind::kBatchMatMul));
}

TEST(Patterns, ToStringMentionsComms) {
  Fixture f = t5_fixture();
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  auto pats = patterns_for(f.tg, q, 8, 1);
  const auto* row = find_pattern(pats, "split_row");
  EXPECT_NE(row->to_string().find("AllReduce"), std::string::npos);
}

}  // namespace
}  // namespace tap::sharding
