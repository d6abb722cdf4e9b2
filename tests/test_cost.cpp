#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include "cost/flops.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "util/check.h"

namespace tap::cost {
namespace {

using sharding::Collective;

TEST(Collectives, ZeroForTrivialGroups) {
  ClusterSpec c;
  EXPECT_EQ(collective_time(Collective::kAllReduce, 1 << 20, 1, c), 0.0);
  EXPECT_EQ(collective_time(Collective::kNone, 1 << 20, 8, c), 0.0);
  EXPECT_EQ(collective_time(Collective::kAllReduce, 0, 8, c), 0.0);
}

TEST(Collectives, MonotoneInBytes) {
  ClusterSpec c;
  double t1 = collective_time(Collective::kAllReduce, 1 << 20, 8, c);
  double t2 = collective_time(Collective::kAllReduce, 1 << 24, 8, c);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t1, 0.0);
}

TEST(Collectives, AllReduceBeatsAllGatherAndAllToAllPerByte) {
  // §4.6: same message size, AllGather and AllToAll take longer than the
  // heavily optimized AllReduce per byte actually moved. Compare via
  // efficiency ordering.
  EXPECT_GT(collective_efficiency(Collective::kAllReduce),
            collective_efficiency(Collective::kAllGather));
  EXPECT_GT(collective_efficiency(Collective::kAllGather),
            collective_efficiency(Collective::kAllToAll));
}

TEST(Collectives, InterNodeIsTheBottleneck) {
  ClusterSpec one_node = ClusterSpec::v100_node();
  ClusterSpec two_nodes = ClusterSpec::v100_cluster(2);
  std::int64_t bytes = 64 << 20;
  double t8 = collective_time(Collective::kAllReduce, bytes, 8, one_node);
  double t16 = collective_time(Collective::kAllReduce, bytes, 16, two_nodes);
  // Crossing Ethernet costs far more than scaling the group (Fig. 6's
  // comm blow-up from 8w to 16w).
  EXPECT_GT(t16, 2.0 * t8);
}

TEST(Collectives, WireBytesRingFactors) {
  EXPECT_DOUBLE_EQ(collective_wire_bytes(Collective::kAllReduce, 800, 8),
                   2.0 * 7.0 / 8.0 * 800);
  EXPECT_DOUBLE_EQ(collective_wire_bytes(Collective::kAllGather, 800, 8),
                   7.0 / 8.0 * 800);
  EXPECT_EQ(collective_wire_bytes(Collective::kAllReduce, 800, 1), 0.0);
}

TEST(Flops, MatMulQuadratic) {
  GraphBuilder b("g");
  NodeId x = b.placeholder("x", {8, 128});
  NodeId m = b.matmul("dense", x, 256);
  const Node& n = b.graph().node(m);
  EXPECT_DOUBLE_EQ(op_flops(n), 2.0 * 8 * 128 * 256);
}

TEST(Flops, ConvCountsKernelVolume) {
  GraphBuilder b("g");
  NodeId x = b.placeholder("x", {2, 16, 16, 4});
  NodeId c = b.conv2d("conv", x, 8, 3, 1);
  const Node& n = b.graph().node(c);
  EXPECT_DOUBLE_EQ(op_flops(n), 2.0 * (2 * 16 * 16 * 8) * (3 * 3 * 4));
}

TEST(Flops, OpTimeShrinksWithSharding) {
  GraphBuilder b("g");
  NodeId x = b.placeholder("x", {64, 4096});
  NodeId m = b.matmul("dense", x, 4096);
  Graph g = b.take();
  ClusterSpec c;
  double full = op_time(g.node(m), g, c);
  double eighth = op_time(g.node(m), g, c, 8.0);
  EXPECT_GT(full, eighth);
  // Launch overhead is not divided.
  EXPECT_GT(eighth, c.kernel_launch_overhead);
}

TEST(Flops, FusionRemovesLaunchOverhead) {
  GraphBuilder b("g");
  NodeId x = b.placeholder("x", {4, 4});
  NodeId r = b.relu("act", x);
  Graph g = b.take();
  ClusterSpec c;
  double unfused = op_time(g.node(r), g, c);
  double fused = op_time(g.node(r), g, c, 1.0, true);
  EXPECT_NEAR(unfused - fused, c.kernel_launch_overhead, 1e-12);
}

struct PlanFixture {
  Graph g;
  ir::TapGraph tg;
  explicit PlanFixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}

  sharding::RoutedPlan route(const sharding::ShardingPlan& p) {
    return sharding::route_plan(tg, p);
  }

  sharding::ShardingPlan megatron(int shards) {
    sharding::ShardingPlan plan = sharding::default_plan(tg, shards);
    for (const auto& n : tg.nodes()) {
      auto pats = sharding::patterns_for(tg, n.id, shards, 1);
      auto pick = [&](const char* name) {
        for (std::size_t i = 0; i < pats.size(); ++i)
          if (pats[i].name == name)
            plan.choice[static_cast<std::size_t>(n.id)] =
                static_cast<int>(i);
      };
      const std::string& nm = n.name;
      if (nm.find("/mha/q") != std::string::npos ||
          nm.find("/mha/k") != std::string::npos ||
          nm.find("/mha/v") != std::string::npos ||
          nm.find("/ffn/wi") != std::string::npos ||
          nm.find("/cross/q") != std::string::npos ||
          nm.find("/cross/k") != std::string::npos ||
          nm.find("/cross/v") != std::string::npos) {
        pick("split_col");
      } else if (nm.find("/mha/o") != std::string::npos ||
                 nm.find("/ffn/wo") != std::string::npos ||
                 nm.find("/cross/o") != std::string::npos) {
        pick("split_row");
      }
    }
    return plan;
  }
};

TEST(CostModel, DpCostIsAllOverlappableGradients) {
  PlanFixture f(models::build_transformer(models::t5_with_layers(2)));
  auto routed = f.route(sharding::default_plan(f.tg, 16));
  ASSERT_TRUE(routed.valid) << routed.error;
  ClusterSpec c = ClusterSpec::v100_cluster(2);
  PlanCost cost = comm_cost(routed, c);
  EXPECT_EQ(cost.forward_comm_s, 0.0);
  EXPECT_GT(cost.backward_comm_s, 0.0);
  EXPECT_GT(cost.overlappable_comm_s, cost.backward_comm_s);
}

TEST(CostModel, ExposedFractionScalesDpCost) {
  PlanFixture f(models::build_transformer(models::t5_with_layers(2)));
  auto routed = f.route(sharding::default_plan(f.tg, 16));
  ClusterSpec c = ClusterSpec::v100_cluster(2);
  CostOptions lo;
  lo.exposed_overlap_fraction = 0.1;
  CostOptions hi;
  hi.exposed_overlap_fraction = 0.9;
  EXPECT_LT(comm_cost(routed, c, lo).total(),
            comm_cost(routed, c, hi).total());
}

TEST(CostModel, MegatronHasForwardComm) {
  PlanFixture f(models::build_transformer(models::t5_with_layers(2)));
  auto routed = f.route(f.megatron(16));
  ASSERT_TRUE(routed.valid) << routed.error;
  ClusterSpec c = ClusterSpec::v100_cluster(2);
  PlanCost cost = comm_cost(routed, c);
  EXPECT_GT(cost.forward_comm_s, 0.0);
  // Megatron's block weight gradients are local; only the (large, still
  // replicated) embeddings/head remain, so the overlappable pool shrinks.
  auto dp = comm_cost(f.route(sharding::default_plan(f.tg, 16)), c);
  EXPECT_LT(cost.overlappable_comm_s, 0.7 * dp.overlappable_comm_s);
}

TEST(CostModel, InvalidPlanRefused) {
  PlanFixture f(models::build_transformer(models::t5_with_layers(1)));
  sharding::ShardingPlan plan = sharding::default_plan(f.tg, 8);
  plan.choice[0] = 42;
  auto routed = f.route(plan);
  ASSERT_FALSE(routed.valid);
  ClusterSpec c;
  EXPECT_THROW(comm_cost(routed, c), tap::CheckError);
}

TEST(Memory, MegatronUsesLessWeightMemoryThanDp) {
  PlanFixture f(models::build_transformer(models::t5_with_layers(2)));
  auto dp = f.route(sharding::default_plan(f.tg, 8));
  auto mg = f.route(f.megatron(8));
  ASSERT_TRUE(dp.valid && mg.valid);
  MemoryEstimate m_dp = estimate_memory(f.tg, dp);
  MemoryEstimate m_mg = estimate_memory(f.tg, mg);
  EXPECT_LT(m_mg.weight_bytes, m_dp.weight_bytes);
  EXPECT_LT(m_mg.optimizer_bytes, m_dp.optimizer_bytes);
}

TEST(Memory, DpShardsActivationsByBatch) {
  PlanFixture f(models::build_transformer(models::t5_with_layers(1)));
  auto dp8 = f.route(sharding::default_plan(f.tg, 8));
  auto dp16 = f.route(sharding::default_plan(f.tg, 16));
  ASSERT_TRUE(dp8.valid && dp16.valid);
  auto m8 = estimate_memory(f.tg, dp8);
  auto m16 = estimate_memory(f.tg, dp16);
  EXPECT_GT(m8.activation_bytes, m16.activation_bytes);
  EXPECT_EQ(m8.weight_bytes, m16.weight_bytes);  // replicated either way
}

TEST(Memory, TotalsAddUp) {
  PlanFixture f(models::build_transformer(models::t5_with_layers(1)));
  auto routed = f.route(sharding::default_plan(f.tg, 8));
  MemoryEstimate m = estimate_memory(f.tg, routed);
  EXPECT_EQ(m.total(), m.weight_bytes + m.gradient_bytes +
                           m.optimizer_bytes + m.activation_bytes);
  EXPECT_GT(m.weight_bytes, 0);
  EXPECT_GT(m.activation_bytes, 0);
  EXPECT_EQ(m.optimizer_bytes, 2 * m.gradient_bytes);
}

}  // namespace
}  // namespace tap::cost
