#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ir/lowering.h"
#include "models/models.h"
#include "sim/loss_curve.h"
#include "util/check.h"

namespace tap::sim {
namespace {

struct Fixture {
  Graph g;
  ir::TapGraph tg;
  explicit Fixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}

  sharding::RoutedPlan dp(int shards) {
    return sharding::route_plan(tg, sharding::default_plan(tg, shards));
  }

  sharding::RoutedPlan megatron(int shards) {
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
          nm.find("/cross/q") != std::string::npos ||
          nm.find("/cross/k") != std::string::npos ||
          nm.find("/cross/v") != std::string::npos ||
          nm.find("/ffn/wi") != std::string::npos) {
        pick("split_col");
      } else if (nm.find("/mha/o") != std::string::npos ||
                 nm.find("/cross/o") != std::string::npos ||
                 nm.find("/ffn/wo") != std::string::npos) {
        pick("split_row");
      }
    }
    return sharding::route_plan(tg, plan);
  }
};

Fixture t5(int layers) {
  return Fixture(models::build_transformer(models::t5_with_layers(layers)));
}

TEST(Simulator, ProducesPositiveBreakdown) {
  Fixture f = t5(2);
  auto routed = f.dp(8);
  ASSERT_TRUE(routed.valid);
  StepBreakdown b =
      simulate_step(f.tg, routed, 8, cost::ClusterSpec::v100_node());
  EXPECT_GT(b.iteration_s, 0.0);
  EXPECT_GT(b.forward_compute_s, 0.0);
  EXPECT_GT(b.backward_compute_s, b.forward_compute_s);  // bwd ~2x fwd
  EXPECT_GT(b.comm_s, 0.0);
  EXPECT_GT(b.memory.total(), 0);
  EXPECT_GE(b.iteration_s, b.forward_compute_s + b.backward_compute_s);
}

TEST(Simulator, InterNodeCommDominatesAt16GPUs) {
  // Fig. 6's central observation: going from 8 GPUs (one node) to 16
  // (two nodes over Ethernet) blows up communication time.
  Fixture f = t5(4);
  auto b8 = simulate_step(f.tg, f.dp(8), 8, cost::ClusterSpec::v100_node());
  auto b16 =
      simulate_step(f.tg, f.dp(16), 16, cost::ClusterSpec::v100_cluster(2));
  EXPECT_GT(b16.comm_s, 3.0 * b8.comm_s);
}

TEST(Simulator, OverlapHidesGradientComm) {
  // DP gradient AllReduce overlaps backward compute: the exposed comm must
  // be well below the total comm busy time on a single fast node.
  Fixture f = t5(4);
  auto b = simulate_step(f.tg, f.dp(8), 8, cost::ClusterSpec::v100_node());
  EXPECT_LT(b.exposed_comm_s, b.comm_s);
}

TEST(Simulator, PackingReducesMessagesAndHelps) {
  Fixture f = t5(4);
  auto routed = f.dp(16);
  cost::ClusterSpec c = cost::ClusterSpec::v100_cluster(2);
  SimOptions with;
  SimOptions without;
  without.gradient_packing = false;
  auto bw = simulate_step(f.tg, routed, 16, c, with);
  auto bo = simulate_step(f.tg, routed, 16, c, without);
  EXPECT_LT(bw.comm_messages, bo.comm_messages);
  EXPECT_LE(bw.iteration_s, bo.iteration_s * 1.001);
}

TEST(Simulator, MegatronShrinksComputeButAddsForwardComm) {
  Fixture f = t5(2);
  cost::ClusterSpec c = cost::ClusterSpec::v100_node();
  auto dp = simulate_step(f.tg, f.dp(8), 8, c);
  auto mg = simulate_step(f.tg, f.megatron(8), 8, c);
  // Under pure DP the batch is divided; under Megatron the weights are.
  // Both shrink compute, but Megatron pays blocking forward AllReduces.
  EXPECT_GT(mg.comm_messages, 0u);
  EXPECT_GT(mg.exposed_comm_s, 0.0);
  // DP's collectives all overlap; Megatron's partial-sum AllReduces block,
  // so more of its communication is exposed.
  EXPECT_GT(mg.exposed_comm_s, dp.exposed_comm_s);
}

TEST(Simulator, XlaFusionTradesLaunchForOverlap) {
  // Fig. 8: fusion saves launch overhead but hinders comm/compute overlap;
  // the net effect is small and can go either way. Check both mechanisms.
  Fixture f = t5(2);
  cost::ClusterSpec c = cost::ClusterSpec::v100_cluster(2);
  auto routed = f.dp(16);
  SimOptions off;
  SimOptions on;
  on.xla_fusion = true;
  auto b_off = simulate_step(f.tg, routed, 16, c, off);
  auto b_on = simulate_step(f.tg, routed, 16, c, on);
  EXPECT_LT(b_on.compute_s(), b_off.compute_s());          // fewer launches
  EXPECT_GE(b_on.exposed_comm_s, b_off.exposed_comm_s);    // worse overlap
}

TEST(Simulator, MemoryMatchesCostEstimate) {
  Fixture f = t5(1);
  auto routed = f.dp(8);
  auto b = simulate_step(f.tg, routed, 8, cost::ClusterSpec::v100_node());
  auto mem = cost::estimate_memory(f.tg, routed);
  EXPECT_EQ(b.memory.total(), mem.total());
}

TEST(Simulator, InvalidPlanThrows) {
  Fixture f = t5(1);
  sharding::ShardingPlan plan = sharding::default_plan(f.tg, 8);
  plan.choice[0] = 55;
  auto routed = sharding::route_plan(f.tg, plan);
  EXPECT_THROW(
      simulate_step(f.tg, routed, 8, cost::ClusterSpec::v100_node()),
      CheckError);
}

TEST(Simulator, RefusesAMeshOtherThanTheRoutes) {
  // The route states its mesh; a caller's disagreeing mesh would read
  // another mesh's pattern catalog, so it is refused.
  Fixture f = t5(1);
  const auto routed = f.dp(8);
  ASSERT_TRUE(routed.valid);
  const cost::ClusterSpec c = cost::ClusterSpec::v100_cluster(2);
  EXPECT_NO_THROW(simulate_step(f.tg, routed, 8, c));
  EXPECT_THROW(simulate_step(f.tg, routed, 16, c), CheckError);
  EXPECT_THROW(simulate_step(f.tg, routed, 4, c), CheckError);
}

TEST(Simulator, DeeperModelTakesLonger) {
  Fixture f2 = t5(2);
  Fixture f8 = t5(8);
  cost::ClusterSpec c = cost::ClusterSpec::v100_node();
  auto b2 = simulate_step(f2.tg, f2.dp(8), 8, c);
  auto b8 = simulate_step(f8.tg, f8.dp(8), 8, c);
  EXPECT_GT(b8.iteration_s, b2.iteration_s);
}

TEST(Simulator, StepBreakdownInvariantsAcrossZoo) {
  std::vector<Graph> zoo;
  zoo.push_back(models::build_transformer(models::t5_with_layers(2)));
  {
    models::TransformerConfig bert = models::bert_large();
    bert.num_layers = 2;
    zoo.push_back(models::build_transformer(bert));
  }
  zoo.push_back(models::build_resnet(models::resnet50(1024)));
  {
    models::MoeConfig moe = models::widenet();
    moe.num_layers = 2;
    zoo.push_back(models::build_moe_transformer(moe));
  }

  for (Graph& g : zoo) {
    SCOPED_TRACE(g.name());
    Fixture f(std::move(g));
    for (int shards : {8, 16}) {
      SCOPED_TRACE(shards);
      cost::ClusterSpec cluster = shards == 8
                                      ? cost::ClusterSpec::v100_node()
                                      : cost::ClusterSpec::v100_cluster(2);
      auto routed = f.dp(shards);
      ASSERT_TRUE(routed.valid);
      Trace trace;
      SimOptions opts;
      opts.trace = &trace;
      StepBreakdown b = simulate_step(f.tg, routed, shards, cluster, opts);

      EXPECT_GE(b.exposed_comm_s, 0.0);
      // The makespan covers each stream's busy time.
      const double slack = b.iteration_s * 1e-9 + 1e-12;
      EXPECT_GE(b.iteration_s + slack, trace.lane_busy_s(0));
      EXPECT_GE(b.iteration_s + slack, trace.lane_busy_s(1));
      // The breakdown's compute/comm totals are exactly the per-lane busy
      // times of the recorded schedule.
      EXPECT_NEAR(trace.lane_busy_s(0), b.compute_s(),
                  b.compute_s() * 1e-9 + 1e-12);
      EXPECT_NEAR(trace.lane_busy_s(1), b.comm_s, b.comm_s * 1e-9 + 1e-12);
      // exposed = makespan − compute busy, never negative.
      EXPECT_NEAR(b.exposed_comm_s,
                  std::max(0.0, b.iteration_s - b.compute_s()),
                  b.iteration_s * 1e-9 + 1e-12);
    }
  }
}

TEST(LossCurve, DecreasesAndBiggerModelWins) {
  LossCurveConfig small;
  small.params = 1e11;  // M6-MoE-100B
  LossCurveConfig big = small;
  big.params = 1e12;  // M6-MoE-1T
  auto ls = simulate_loss_curve(small);
  auto lb = simulate_loss_curve(big);
  ASSERT_EQ(ls.size(), lb.size());
  // Loss decreases over training (compare averaged ends to skip noise).
  auto avg = [](const std::vector<double>& v, std::size_t from,
                std::size_t to) {
    double s = 0;
    for (std::size_t i = from; i < to; ++i) s += v[i];
    return s / static_cast<double>(to - from);
  };
  EXPECT_LT(avg(ls, ls.size() - 50, ls.size()), avg(ls, 0, 50));
  // Fig. 15: the 1T model reaches lower loss for the same step budget.
  EXPECT_LT(avg(lb, lb.size() - 50, lb.size()),
            avg(ls, ls.size() - 50, ls.size()));
}

TEST(LossCurve, DeterministicPerSeed) {
  LossCurveConfig cfg;
  auto a = simulate_loss_curve(cfg);
  auto b = simulate_loss_curve(cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 99;
  auto c = simulate_loss_curve(cfg);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace tap::sim
