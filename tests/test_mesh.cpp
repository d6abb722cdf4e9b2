// Hybrid data x tensor parallelism over a 2D device mesh — the paper's
// Example 1 (`mesh = [2, 8]`).
#include <gtest/gtest.h>

#include "baselines/expert_plans.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "sim/simulator.h"

namespace tap {
namespace {

struct Fixture {
  Graph g;
  ir::TapGraph tg;
  explicit Fixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}
};

Fixture t5(int layers) {
  return Fixture(models::build_transformer(models::t5_with_layers(layers)));
}

TEST(Mesh, FlatMeshIsBackwardCompatible) {
  EXPECT_EQ(sharding::MeshSpec::flat(8).dp, 1);
  EXPECT_EQ(sharding::MeshSpec::flat(8).tp, 8);
  EXPECT_EQ(sharding::MeshSpec({2, 8}).world(), 16);
  EXPECT_EQ(sharding::MeshSpec({2, 8}).to_string(), "[2, 8]");
}

TEST(Mesh, DpPatternNeedsFullMeshBatchDivisibility) {
  Fixture f = t5(1);
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  ASSERT_NE(q, ir::kInvalidGraphNode);
  // batch 16: divisible by 2x8=16 -> dp pattern present.
  auto pats_16 = sharding::patterns_for(f.tg, q, 8, 2);
  bool has_dp_16 = false;
  for (const auto& p : pats_16) has_dp_16 |= p.name == "dp";
  EXPECT_TRUE(has_dp_16);
  // dp=4 x tp=8 = 32 > batch 16 -> dp pattern must disappear.
  auto pats_32 = sharding::patterns_for(f.tg, q, 8, 4);
  for (const auto& p : pats_32) EXPECT_NE(p.name, "dp");
}

TEST(Mesh, RoutedPlanCarriesMesh) {
  Fixture f = t5(1);
  auto plan = sharding::default_plan(f.tg, 8, 2);
  auto routed = sharding::route_plan(f.tg, plan);
  ASSERT_TRUE(routed.valid) << routed.error;
  EXPECT_EQ(routed.num_shards, 8);
  EXPECT_EQ(routed.dp_replicas, 2);
}

TEST(Mesh, HybridMegatronSplitsCommAcrossGroups) {
  // Megatron over tp=8 within each node + dp=2 across nodes: the forward
  // partial-sum AllReduces ride the fast intra-node fabric (group 8), the
  // per-shard gradient sync crosses nodes (group 2, cross_node).
  Fixture f = t5(2);
  auto plan = baselines::megatron_plan(f.tg, 8);
  plan.dp_replicas = 2;
  auto routed = sharding::route_plan(f.tg, plan);
  ASSERT_TRUE(routed.valid) << routed.error;
  bool saw_tp_fwd = false, saw_dp_shard_sync = false;
  for (const auto& e : routed.comms) {
    const std::string reason = sharding::comm_reason(f.tg, routed, e);
    if (reason.rfind("pattern:", 0) == 0) {
      EXPECT_EQ(e.group, 8);
      EXPECT_FALSE(e.cross_node);
      saw_tp_fwd = true;
    }
    if (reason.rfind("wgrad:dp-shard", 0) == 0) {
      EXPECT_EQ(e.group, 2);
      EXPECT_TRUE(e.cross_node);
      saw_dp_shard_sync = true;
    }
  }
  EXPECT_TRUE(saw_tp_fwd);
  EXPECT_TRUE(saw_dp_shard_sync);
}

TEST(Mesh, ActivationBytesScaleWithDp) {
  Fixture f = t5(1);
  auto p1 = baselines::megatron_plan(f.tg, 8);
  auto p2 = p1;
  p2.dp_replicas = 2;
  auto r1 = sharding::route_plan(f.tg, p1);
  auto r2 = sharding::route_plan(f.tg, p2);
  ASSERT_TRUE(r1.valid && r2.valid);
  // The forward AllReduce of the same block moves half the bytes when the
  // batch is pre-split across 2 replicas.
  auto fwd_bytes = [&](const sharding::RoutedPlan& r) {
    std::int64_t b = 0;
    for (const auto& e : r.comms)
      if (sharding::comm_reason(f.tg, r, e).rfind("pattern:", 0) == 0 &&
          e.phase == sharding::CommEvent::Phase::kForward)
        b += e.bytes;
    return b;
  };
  EXPECT_EQ(fwd_bytes(r1), 2 * fwd_bytes(r2));
}

TEST(Mesh, PureReplicationNeedsNoGradientSync) {
  // With dp=1 and a fully replicated stream (Megatron block boundaries),
  // LayerNorm weights see identical data on every tp device: their
  // gradient AllReduce disappears.
  Fixture f = t5(1);
  auto plan = baselines::megatron_plan(f.tg, 8);
  auto routed = sharding::route_plan(f.tg, plan);
  ASSERT_TRUE(routed.valid);
  for (const auto& e : routed.comms) {
    if (sharding::comm_reason(f.tg, routed, e).rfind("wgrad:replicate", 0) ==
        0) {
      // Any surviving replicate-pattern sync must be on divergent data.
      EXPECT_GT(e.group, 1);
    }
  }
}

TEST(Mesh, HybridBeatsFlatOnTwoNodes) {
  // The deployment everyone actually uses: tp inside the node (fast
  // fabric) + dp across nodes. On 2x8 GPUs the hybrid Megatron plan must
  // beat flat 16-way Megatron.
  Fixture f = t5(4);
  cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);

  auto flat = baselines::megatron_plan(f.tg, 16);
  auto flat_routed = sharding::route_plan(f.tg, flat);
  ASSERT_TRUE(flat_routed.valid);

  auto hybrid = baselines::megatron_plan(f.tg, 8);
  hybrid.dp_replicas = 2;
  auto hybrid_routed = sharding::route_plan(f.tg, hybrid);
  ASSERT_TRUE(hybrid_routed.valid);

  auto flat_step = sim::simulate_step(f.tg, flat_routed, 16, cluster);
  auto hybrid_step = sim::simulate_step(f.tg, hybrid_routed, 8, cluster);
  EXPECT_LT(hybrid_step.iteration_s, flat_step.iteration_s);
}

TEST(Mesh, AutoParallelHonorsMesh) {
  Fixture f = t5(2);
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  auto r = core::auto_parallel(f.tg, opts);
  ASSERT_TRUE(r.routed.valid);
  EXPECT_EQ(r.best_plan.num_shards, 8);
  EXPECT_EQ(r.best_plan.dp_replicas, 2);
  EXPECT_EQ(r.routed.dp_replicas, 2);
}

TEST(Mesh, BestMeshSweepPicksValidFactorization) {
  Fixture f = t5(2);
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  auto r = core::auto_parallel_best_mesh(f.tg, opts);
  ASSERT_TRUE(r.routed.valid);
  EXPECT_EQ(r.best_plan.world(), 16);
  // The sweep must not be worse than the flat tp=16 mesh.
  core::TapOptions flat = opts;
  flat.num_shards = 16;
  flat.dp_replicas = 1;
  auto fr = core::auto_parallel(f.tg, flat);
  EXPECT_LE(r.cost.total(), fr.cost.total() * 1.0001);
}

TEST(Mesh, MemoryScalesWithDp) {
  Fixture f = t5(1);
  auto p1 = sharding::default_plan(f.tg, 8, 1);
  auto p2 = sharding::default_plan(f.tg, 8, 2);
  auto r1 = sharding::route_plan(f.tg, p1);
  auto r2 = sharding::route_plan(f.tg, p2);
  ASSERT_TRUE(r1.valid && r2.valid);
  auto m1 = cost::estimate_memory(f.tg, r1);
  auto m2 = cost::estimate_memory(f.tg, r2);
  EXPECT_EQ(m1.weight_bytes, m2.weight_bytes);      // dp never shards weights
  EXPECT_GT(m1.activation_bytes, m2.activation_bytes);  // batch pre-split
}

}  // namespace
}  // namespace tap
