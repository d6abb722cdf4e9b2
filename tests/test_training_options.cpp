// §4.8 training-technique options: AMP, activation recomputation, ZeRO-1.
#include <gtest/gtest.h>

#include "baselines/expert_plans.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "sim/simulator.h"

namespace tap {
namespace {

struct Fixture {
  Graph g;
  ir::TapGraph tg;
  sharding::RoutedPlan routed;
  cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);

  Fixture()
      : g(models::build_transformer(models::t5_with_layers(2))),
        tg(ir::lower(g)) {
    auto plan = sharding::default_plan(tg, 8, 2);  // hybrid mesh
    routed = sharding::route_plan(tg, plan);
  }

  sim::StepBreakdown run(const cost::TrainingOptions& t) {
    sim::SimOptions opts;
    opts.training = t;
    return sim::simulate_step(tg, routed, 8, cluster, opts);
  }
};

TEST(TrainingOptions, AmpShrinksActivationsAndGradsKeepsMasterWeights) {
  Fixture f;
  auto base = cost::estimate_memory(f.tg, f.routed);
  cost::TrainingOptions amp;
  amp.amp = true;
  auto m = cost::estimate_memory(f.tg, f.routed, amp);
  EXPECT_EQ(m.activation_bytes, base.activation_bytes / 2);
  EXPECT_EQ(m.gradient_bytes, base.gradient_bytes / 2);
  // fp32 master + fp16 working copy = 1.5x weight bytes.
  EXPECT_EQ(m.weight_bytes, base.weight_bytes + base.weight_bytes / 2);
  EXPECT_EQ(m.optimizer_bytes, base.optimizer_bytes);  // fp32 moments stay
}

TEST(TrainingOptions, AmpSpeedsComputeAndHalvesCommTime) {
  Fixture f;
  auto base = f.run({});
  cost::TrainingOptions amp;
  amp.amp = true;
  auto m = f.run(amp);
  EXPECT_LT(m.compute_s(), base.compute_s());
  EXPECT_LT(m.comm_s, base.comm_s);
  EXPECT_LT(m.iteration_s, base.iteration_s);
}

TEST(TrainingOptions, RecomputeTradesMemoryForBackwardCompute) {
  Fixture f;
  auto base = f.run({});
  cost::TrainingOptions rc;
  rc.recompute = true;
  auto m = f.run(rc);
  EXPECT_LT(m.memory.activation_bytes, base.memory.activation_bytes / 2);
  EXPECT_GT(m.backward_compute_s, base.backward_compute_s);
  EXPECT_EQ(m.forward_compute_s, base.forward_compute_s);
}

TEST(TrainingOptions, Zero1ShardsOptimizerAcrossDp) {
  Fixture f;
  cost::TrainingOptions z;
  z.zero1 = true;
  auto base = cost::estimate_memory(f.tg, f.routed);
  auto m = cost::estimate_memory(f.tg, f.routed, z);
  EXPECT_EQ(m.optimizer_bytes, base.optimizer_bytes / 2);  // dp = 2
  // ...but adds a weight re-gather to the step.
  auto b0 = f.run({});
  auto bz = f.run(z);
  EXPECT_GT(bz.comm_s, b0.comm_s);
}

TEST(TrainingOptions, Zero1NoopWithoutDpReplicas) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  auto routed = sharding::route_plan(tg, sharding::default_plan(tg, 8));
  cost::TrainingOptions z;
  z.zero1 = true;
  auto base = cost::estimate_memory(tg, routed);
  auto m = cost::estimate_memory(tg, routed, z);
  EXPECT_EQ(m.optimizer_bytes, base.optimizer_bytes);
}

TEST(TrainingOptions, TechniquesCompose) {
  Fixture f;
  cost::TrainingOptions all;
  all.amp = true;
  all.recompute = true;
  all.zero1 = true;
  auto m = f.run(all);
  auto base = f.run({});
  // Everything on: less total memory (AMP's fp32 master copy costs weight
  // bytes, which dominate this small DP-heavy model) and activations cut
  // by ~8x (fp16 x keep-fraction).
  EXPECT_LT(m.memory.total(), base.memory.total());
  EXPECT_LT(m.memory.activation_bytes, base.memory.activation_bytes / 4);
  EXPECT_LT(m.memory.optimizer_bytes, base.memory.optimizer_bytes);
}

}  // namespace
}  // namespace tap
