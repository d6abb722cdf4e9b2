// GlobalRefine routes each revert probe with route_plan_into, costs it
// over the full-graph BackwardWindowTerms window, and skips probes whose
// family is already all zeros. It must decide exactly what the plain
// full-route loop decides: the reference below is that loop, kept as it
// was apart from its deadline check (these contexts have none) and from
// costing each route with backward_compute_window directly. It routes
// the skipped probes too, so the skip rule is checked against it.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/family_search.h"
#include "core/planner_pipeline.h"
#include "cost/cost_model.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "pruning/prune.h"
#include "sharding/plan.h"
#include "sharding/routing.h"

namespace tap::core {
namespace {

bool weighted(const ir::TapGraph& tg, const pruning::SubgraphFamily& f) {
  for (ir::GraphNodeId id : f.member_nodes)
    if (tg.node(id).has_weight()) return true;
  return false;
}

cost::PlanCost full_cost(const PlanContext& ctx,
                         const sharding::RoutedPlan& routed) {
  cost::CostOptions copts = ctx.opts.cost;
  copts.overlap_window_s = cost::backward_compute_window(
      ctx.graph(), routed, nullptr, ctx.opts.cluster);
  return cost::comm_cost(routed, ctx.opts.cluster, copts);
}

/// The refine loop before incremental probes: every probe, no-op reverts
/// included, is a full route_plan_into plus a full-graph cost.
void reference_refine(PlanContext& ctx) {
  const ir::TapGraph& tg = ctx.graph();
  const sharding::PatternTable& table = *ctx.table;
  sharding::RoutingScratch scratch;
  sharding::RoutedPlan routed;
  sharding::ShardingPlan reverted;
  std::vector<int> zeros;

  sharding::route_plan_into(tg, ctx.plan, table, &scratch, &ctx.routed);
  ctx.stats.nodes_visited += static_cast<std::int64_t>(tg.num_nodes());
  double current_cost = ctx.routed.valid ? full_cost(ctx, ctx.routed).total()
                                         : kInvalidPlanCost;
  ++ctx.stats.cost_queries;
  for (const pruning::SubgraphFamily& family : ctx.pruning.families) {
    if (!weighted(tg, family)) continue;
    reverted = ctx.plan;
    zeros.assign(family.member_nodes.size(), 0);
    sharding::apply_family_choice(family, zeros, &reverted);
    sharding::route_plan_into(tg, reverted, table, &scratch, &routed);
    ctx.stats.nodes_visited += static_cast<std::int64_t>(tg.num_nodes());
    if (!routed.valid) continue;
    ++ctx.stats.cost_queries;
    const double c = full_cost(ctx, routed).total();
    if (c < current_cost) {
      current_cost = c;
      std::swap(ctx.plan, reverted);
      std::swap(ctx.routed, routed);
    }
  }
  if (!ctx.routed.valid) {
    ctx.plan = sharding::default_plan(tg, ctx.opts.num_shards,
                                      ctx.opts.dp_replicas);
    ctx.routed = sharding::route_plan(tg, ctx.plan, &table);
  }
  ASSERT_TRUE(ctx.routed.valid) << ctx.routed.error;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_event(const sharding::CommEvent& a,
                       const sharding::CommEvent& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.cross_node, b.cross_node);
  EXPECT_EQ(a.overlappable, b.overlappable);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.src, b.src);
  EXPECT_TRUE(a.from_spec == b.from_spec);
  EXPECT_TRUE(a.to_spec == b.to_spec);
  EXPECT_EQ(a.why, b.why);
}

/// Runs GlobalRefine + FinalizeCost on `ctx` and the reference on a copy
/// of it, and checks they agree on everything the plan bytes carry.
/// Returns true when a revert probe replaced the family-search plan.
bool expect_refine_matches_reference(PlanContext ctx) {
  PlanContext ref = ctx;
  const sharding::ShardingPlan searched = ctx.plan;
  GlobalRefinePass().run(ctx);
  FinalizeCostPass().run(ctx);
  reference_refine(ref);
  FinalizeCostPass().run(ref);

  EXPECT_EQ(ctx.plan.choice, ref.plan.choice);
  EXPECT_EQ(ctx.stats.nodes_visited, ref.stats.nodes_visited);
  EXPECT_EQ(ctx.stats.cost_queries, ref.stats.cost_queries);
  EXPECT_TRUE(same_bits(ctx.cost.forward_comm_s, ref.cost.forward_comm_s));
  EXPECT_TRUE(same_bits(ctx.cost.backward_comm_s, ref.cost.backward_comm_s));
  EXPECT_TRUE(
      same_bits(ctx.cost.overlappable_comm_s, ref.cost.overlappable_comm_s));
  EXPECT_EQ(ctx.cost.comm_bytes, ref.cost.comm_bytes);

  const sharding::RoutedPlan& a = ctx.routed;
  const sharding::RoutedPlan& b = ref.routed;
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.dp_replicas, b.dp_replicas);
  EXPECT_EQ(a.pattern_index, b.pattern_index);
  EXPECT_TRUE(a.output_spec == b.output_spec);
  EXPECT_EQ(a.comms.size(), b.comms.size());
  for (std::size_t i = 0; i < std::min(a.comms.size(), b.comms.size()); ++i)
    expect_same_event(a.comms[i], b.comms[i]);
  EXPECT_EQ(a.edge_conversions.size(), b.edge_conversions.size());
  for (std::size_t i = 0;
       i < std::min(a.edge_conversions.size(), b.edge_conversions.size());
       ++i) {
    EXPECT_EQ(a.edge_conversions[i].src, b.edge_conversions[i].src);
    EXPECT_EQ(a.edge_conversions[i].dst, b.edge_conversions[i].dst);
    EXPECT_TRUE(a.edge_conversions[i].from == b.edge_conversions[i].from);
    EXPECT_TRUE(a.edge_conversions[i].to == b.edge_conversions[i].to);
  }
  return ref.plan.choice != searched.choice;
}

/// A context with the passes before GlobalRefine run.
PlanContext searched_context(const ir::TapGraph& tg,
                             const pruning::PruneResult& pr,
                             const cost::ClusterSpec& cluster, int tp,
                             std::shared_ptr<const FamilySearchPolicy> policy) {
  PlanContext ctx;
  ctx.tg = &tg;
  ctx.opts.cluster = cluster;
  ctx.opts.num_shards = tp;
  ctx.opts.dp_replicas = cluster.world() / tp;
  ctx.opts.threads = 1;
  ctx.shared_pruning = &pr;
  PlannerPipeline::standard(std::move(policy)).run_prefix(ctx, 3);
  return ctx;
}

TEST(GlobalRefine, IncrementalProbesMatchFullRouteReference) {
  obs::Counter* skipped =
      obs::registry().counter("planner.refine.skipped_probes");
  obs::Counter* probes = obs::registry().counter("planner.refine.probes");
  const std::uint64_t skipped_before = skipped->value();
  const std::uint64_t probes_before = probes->value();
  const auto policy = std::make_shared<FrontierDpPolicy>();
  int t5_wins = 0, configs = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    for (int nodes : {1, 2, 4}) {
      const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(nodes);
      for (int tp = 1; tp <= cluster.world(); ++tp) {
        if (cluster.world() % tp != 0) continue;
        SCOPED_TRACE("world=" + std::to_string(cluster.world()) +
                     " tp=" + std::to_string(tp));
        const bool won = expect_refine_matches_reference(
            searched_context(tg, pr, cluster, tp, policy));
        if (won && entry.model == "T5-Large") ++t5_wins;
        ++configs;
      }
    }
  }
  EXPECT_GT(configs, 100);
  // ROADMAP's sweep: revert probes win for T5-Large, so the swap path runs.
  EXPECT_GT(t5_wins, 0);
  EXPECT_GT(skipped->value(), skipped_before);
  EXPECT_GT(probes->value() - probes_before, skipped->value() - skipped_before);
}

TEST(GlobalRefine, InvalidAssemblyMatchesReference) {
  const Graph g = models::table1_zoo()[7].build();  // T5-Large
  const ir::TapGraph tg = ir::lower(g);
  const pruning::PruneResult pr = pruning::prune_graph(tg);
  const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  const PlanContext searched =
      searched_context(tg, pr, cluster, 8,
                       std::make_shared<FrontierDpPolicy>());

  // A choice no probe reverts (a node of an unweighted family) keeps every
  // probe invalid: the pass falls back to the data-parallel plan.
  const pruning::SubgraphFamily* glue = nullptr;
  const pruning::SubgraphFamily* weighted_family = nullptr;
  for (const pruning::SubgraphFamily& f : pr.families) {
    if (!weighted(tg, f) && glue == nullptr) glue = &f;
    if (weighted(tg, f) && f.multiplicity() > 1 && weighted_family == nullptr)
      weighted_family = &f;
  }
  ASSERT_NE(glue, nullptr);
  ASSERT_NE(weighted_family, nullptr);
  {
    PlanContext ctx = searched;
    ctx.plan.choice[static_cast<std::size_t>(glue->member_nodes.front())] = 1;
    expect_refine_matches_reference(ctx);
    GlobalRefinePass().run(ctx);
    EXPECT_EQ(ctx.plan.choice,
              sharding::default_plan(tg, 8, cluster.world() / 8).choice);
  }
  // An invalid choice inside a weighted family: its revert is the first
  // probe that routes, and it must win over the invalid assembly.
  {
    PlanContext ctx = searched;
    for (const auto& instance : weighted_family->instance_nodes)
      for (ir::GraphNodeId id : instance)
        if (tg.node(id).has_weight())
          ctx.plan.choice[static_cast<std::size_t>(id)] = 99;
    EXPECT_TRUE(expect_refine_matches_reference(ctx));
  }
}

}  // namespace
}  // namespace tap::core
