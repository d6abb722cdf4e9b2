#include "sharding/routing.h"

#include <gtest/gtest.h>

#include "core/tap.h"
#include "graph/graph_builder.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "sharding/enumerate.h"
#include "util/check.h"

namespace tap::sharding {
namespace {

using ir::TapGraph;

struct Fixture {
  Graph g;
  TapGraph tg;
  explicit Fixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}
};

Fixture t5(int layers = 1) {
  return Fixture(models::build_transformer(models::t5_with_layers(layers)));
}

/// Sets the pattern of a named weighted cluster by pattern name.
void set_pattern(const TapGraph& tg, ShardingPlan* plan,
                 const std::string& node, const std::string& pattern) {
  auto id = tg.find(node);
  ASSERT_NE(id, ir::kInvalidGraphNode) << node;
  auto pats = patterns_for(tg, id, plan->num_shards, plan->dp_replicas);
  for (std::size_t i = 0; i < pats.size(); ++i) {
    if (pats[i].name == pattern) {
      plan->choice[static_cast<std::size_t>(id)] = static_cast<int>(i);
      return;
    }
  }
  FAIL() << "pattern " << pattern << " not found for " << node;
}

/// comm_reason read against the PatternTable of `r`'s own mesh.
std::string reason_of(const TapGraph& tg, const RoutedPlan& r,
                      const CommEvent& e) {
  return comm_reason(PatternTable(tg, r.num_shards, r.dp_replicas), r, e);
}

TEST(Routing, DefaultDataParallelPlanIsValid) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  // Pure DP: no forward collectives on the activation path, all comm is
  // backward weight-gradient AllReduce.
  EXPECT_EQ(r.forward_comm_bytes(), 0);
  EXPECT_GT(r.backward_comm_bytes(), 0);
  EXPECT_EQ(r.backward_comm_bytes(), r.overlappable_comm_bytes());
}

TEST(Routing, TablelessRouteReadsThePlansOwnMeshCatalog) {
  // At 4x8 the batch of 16 does not split 32 ways, so the mesh's catalog
  // lacks the batch-split pattern the 1x8 catalog leads with, and index 0
  // of a weighted node names different patterns in the two. A route
  // without a table reads the plan's own mesh's catalog; a table of
  // another mesh is refused.
  Fixture f = t5();
  const ShardingPlan plan = default_plan(f.tg, 8, 4);
  const PatternTable own(f.tg, 8, 4), dp1(f.tg, 8, 1);
  const ir::GraphNodeId q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  ASSERT_NE(q, ir::kInvalidGraphNode);
  ASSERT_NE(own.at(q)[0].name, dp1.at(q)[0].name);
  const RoutedPlan tableless = route_plan(f.tg, plan);
  const RoutedPlan with_table = route_plan(f.tg, plan, &own);
  ASSERT_TRUE(tableless.valid && with_table.valid) << tableless.error;
  EXPECT_EQ(tableless.pattern_index, with_table.pattern_index);
  ASSERT_EQ(tableless.comms.size(), with_table.comms.size());
  for (std::size_t i = 0; i < tableless.comms.size(); ++i) {
    EXPECT_EQ(comm_reason(own, tableless, tableless.comms[i]),
              comm_reason(own, with_table, with_table.comms[i]));
  }
  EXPECT_THROW(route_plan(f.tg, plan, &dp1), CheckError);
}

TEST(Routing, DpGradientBytesEqualModelSize) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid);
  // Every trainable parameter is AllReduced exactly once (fp32 = 4B).
  EXPECT_EQ(r.backward_comm_bytes(), f.g.total_params() * 4);
}

TEST(Routing, MegatronStyleAttentionHasTwoAllReducesPerBlock) {
  Fixture f = t5();
  // Megatron: q/k/v split_col, o split_row; wi split_col, wo split_row.
  ShardingPlan plan = default_plan(f.tg, 8);
  for (const char* node :
       {"t5_1l/encoder/block_0/mha/q", "t5_1l/encoder/block_0/mha/k",
        "t5_1l/encoder/block_0/mha/v"})
    set_pattern(f.tg, &plan, node, "split_col");
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/mha/o", "split_row");
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wi", "split_col");
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wo", "split_row");
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  // Forward pattern comms: exactly the two partial-sum AllReduces (o, wo)
  // in this encoder block.
  int fwd_pattern_allreduce = 0;
  for (const auto& e : r.comms) {
    if (e.phase == CommEvent::Phase::kForward &&
        e.kind == Collective::kAllReduce &&
        reason_of(f.tg, r, e).rfind("pattern:", 0) == 0 &&
        f.tg.node(e.node).name.find("block_0") != std::string::npos) {
      ++fwd_pattern_allreduce;
    }
  }
  EXPECT_EQ(fwd_pattern_allreduce, 2);
}

TEST(Routing, SplitColFeedsSplitRowWithoutReshard) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wi", "split_col");
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wo", "split_row");
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  // wi's split output flows through gelu straight into wo's required split
  // input: no reshard at the activation (ffn#1) or at wo. (Resharding at
  // wi's *entry* is expected — the surrounding plan is data parallel.)
  for (const auto& e : r.comms) {
    const std::string reason = reason_of(f.tg, r, e);
    if (reason.rfind("reshard", 0) == 0) {
      const std::string& where = f.tg.node(e.node).name;
      EXPECT_EQ(where.find("ffn/wo"), std::string::npos)
          << reason << " at " << where;
      EXPECT_EQ(where.find("ffn#1"), std::string::npos)
          << reason << " at " << where;
    }
  }
}

TEST(Routing, LoneSplitColTriggersGatherAtNormBoundary) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wi", "split_col");
  // wo stays dp: requires S(0) input -> the split(-1) activation must be
  // re-sharded on the way.
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  bool reshard_seen = false;
  for (const auto& e : r.comms)
    reshard_seen |= reason_of(f.tg, r, e).rfind("reshard", 0) == 0;
  EXPECT_TRUE(reshard_seen);
}

TEST(Routing, InvalidChoiceIndexFails) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  plan.choice[0] = 99;
  RoutedPlan r = route_plan(f.tg, plan);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.error.find("no sharding pattern"), std::string::npos);
}

TEST(Routing, OutputSpecsArePopulated) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.output_spec.size(), f.tg.num_nodes());
  // Under DP the residual stream is batch-split.
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  EXPECT_EQ(r.output_spec[static_cast<std::size_t>(q)], ShardSpec::split(0));
}

TEST(Routing, ScalarLossCollapsesToReplicated) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid);
  auto head = f.tg.find("t5_1l/head");
  ASSERT_NE(head, ir::kInvalidGraphNode);
  EXPECT_TRUE(
      r.output_spec[static_cast<std::size_t>(head)].is_replicate());
}

TEST(Routing, CommEventsCarryReasonsAndBytes) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  for (const auto& e : r.comms) {
    EXPECT_GT(e.bytes, 0);
    EXPECT_FALSE(reason_of(f.tg, r, e).empty());
    EXPECT_NE(e.node, ir::kInvalidGraphNode);
  }
}

TEST(Routing, EveryEnumeratedT5BlockPlanRoutes) {
  // All 729 block candidates must either route cleanly or fail with a
  // divisibility explanation — never crash. With T5 dims everything
  // divides by 8, so they should all be valid.
  Fixture f = t5(2);
  pruning::PruneResult pr = pruning::prune_graph(f.tg);
  const pruning::SubgraphFamily* block = nullptr;
  for (const auto& fam : pr.families)
    if (fam.multiplicity() == 2 &&
        fam.representative.find("encoder/block_0") != std::string::npos)
      block = &fam;
  ASSERT_NE(block, nullptr);
  const PatternTable table(f.tg, 8, 1);
  FamilyPlanEnumerator e(table, *block);
  EXPECT_EQ(e.total_plans(), 729);
  std::vector<int> choice;
  int valid = 0, total = 0;
  while (e.next(&choice)) {
    ShardingPlan plan = default_plan(f.tg, 8);
    apply_family_choice(*block, choice, &plan);
    RoutedPlan r = route_plan(f.tg, plan, &table);
    ++total;
    valid += r.valid ? 1 : 0;
  }
  EXPECT_EQ(total, 729);
  EXPECT_EQ(valid, 729);
}

TEST(Routing, FamilyChoiceAppliesToAllInstances) {
  Fixture f = t5(3);
  pruning::PruneResult pr = pruning::prune_graph(f.tg);
  const pruning::SubgraphFamily* block = nullptr;
  for (const auto& fam : pr.families)
    if (fam.multiplicity() == 3) block = &fam;
  ASSERT_NE(block, nullptr);
  ShardingPlan plan = default_plan(f.tg, 8);
  std::vector<int> choice(block->member_nodes.size(), 0);
  // Set a non-default on the first weighted member.
  for (std::size_t j = 0; j < block->member_nodes.size(); ++j) {
    if (f.tg.node(block->member_nodes[j]).has_weight() &&
        patterns_for(f.tg, block->member_nodes[j], 8, 1).size() > 1) {
      choice[j] = 1;
      break;
    }
  }
  apply_family_choice(*block, choice, &plan);
  // All three instances must have received the same pattern index.
  for (std::size_t i = 0; i < block->instances.size(); ++i) {
    for (std::size_t j = 0; j < choice.size(); ++j) {
      EXPECT_EQ(plan.choice[static_cast<std::size_t>(
                    block->instance_nodes[i][j])],
                choice[j]);
    }
  }
}

TEST(Routing, RouteIntoReusedScratchMatchesFreshRoute) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  sharding::PatternTable table(tg, 8, 1);
  sharding::ShardingPlan plan = sharding::default_plan(tg, 8);

  sharding::RoutingScratch scratch;
  sharding::RoutedPlan reused;
  // Alternate whole-graph and per-boundary routes through ONE scratch;
  // every result must match a fresh, scratch-free route.
  const std::vector<ir::GraphNodeId> all = tg.cached_topo_order();
  for (int round = 0; round < 3; ++round) {
    sharding::route_plan_into(tg, plan, table, &scratch, &reused);
    sharding::RoutedPlan fresh = sharding::route_plan(tg, plan, &table);
    ASSERT_EQ(reused.valid, fresh.valid) << fresh.error;
    ASSERT_EQ(reused.comms.size(), fresh.comms.size());
    for (std::size_t i = 0; i < fresh.comms.size(); ++i) {
      EXPECT_EQ(reused.comms[i].kind, fresh.comms[i].kind);
      EXPECT_EQ(reused.comms[i].bytes, fresh.comms[i].bytes);
      EXPECT_EQ(reused.comms[i].group, fresh.comms[i].group);
      EXPECT_EQ(reused.comms[i].node, fresh.comms[i].node);
    }
    EXPECT_EQ(reused.output_spec, fresh.output_spec);
    EXPECT_EQ(reused.pattern_index, fresh.pattern_index);

    sharding::route_subgraph_into(tg, plan, sharding::SubgraphScope(tg, all),
                                  sharding::ShardSpec::split(0), table,
                                  &scratch, &reused);
    sharding::RoutedPlan fresh_sub = sharding::route_subgraph(
        tg, plan, all, sharding::ShardSpec::split(0), &table);
    ASSERT_EQ(reused.valid, fresh_sub.valid);
    EXPECT_EQ(reused.comms.size(), fresh_sub.comms.size());
    EXPECT_EQ(reused.output_spec, fresh_sub.output_spec);
  }
}

/// x -> p -> c1 -> e -> c2 -> out, where c2 also reads p (its primary
/// input) next to e: p stays live from c1 to c2, with e in between.
struct Diamond {
  Graph g;
  TapGraph tg;
  ir::GraphNodeId p, c2;

  Diamond() {
    GraphBuilder b("diamond");
    const NodeId x = b.placeholder("m/x", {8, 16});
    const NodeId pp = b.matmul("m/p/proj", x, 16);
    const NodeId c1 = b.matmul("m/c1/proj", pp, 16);
    const NodeId e = b.matmul("m/e/proj", c1, 16);
    const NodeId sum = b.add("m/c2/sum", pp, e);
    const NodeId cc2 = b.matmul("m/c2/proj", sum, 16);
    b.relu("m/out/relu", cc2);
    g = b.take();
    tg = ir::lower(g);
    p = tg.find("m/p");
    c2 = tg.find("m/c2");
  }
};

/// What a FrontierRouter over the whole diamond reaches under `plan`:
/// the state before c2 and the events the c2 step emits from it.
struct BeforeC2 {
  FrontierState state;
  std::vector<CommEvent> c2_events;
};

BeforeC2 route_to_c2(const Diamond& d, const PatternTable& table,
                     const ShardingPlan& plan) {
  std::vector<ir::GraphNodeId> all;
  for (const ir::GraphNode& n : d.tg.nodes()) all.push_back(n.id);
  const SubgraphScope scope(d.tg, all);
  FrontierRouter router;
  router.bind(d.tg, scope, table);
  BeforeC2 out;
  FrontierState state, next;
  router.initial(ShardSpec::replicate(), &state);
  const auto c2 = static_cast<std::size_t>(d.tg.topo_position(d.c2));
  for (std::size_t p = 0; p <= c2; ++p) {
    router.restore(state, p);
    EXPECT_TRUE(router.step(
        plan.choice[static_cast<std::size_t>(scope.order[p])], &next));
    if (p < c2) state = next;
  }
  out.state = state;
  out.c2_events.assign(router.events().begin(), router.events().end());
  return out;
}

/// Producer `id`'s output layout in `state` (split(3) when `state` does
/// not hold `id`).
ShardSpec layout_in(const FrontierState& state, const Diamond& d,
                    ir::GraphNodeId id) {
  RoutedPlan buffers;
  buffers.output_spec.assign(d.tg.num_nodes(), ShardSpec::split(3));
  RoutingScratch scratch;
  state.restore(&buffers, &scratch);
  return buffers.output_spec[static_cast<std::size_t>(id)];
}

/// The c2 events of `why` whose producer is p.
int count_from_p(const Diamond& d, const BeforeC2& r, CommReason why) {
  int n = 0;
  for (const CommEvent& ev : r.c2_events) n += ev.why == why && ev.src == d.p;
  return n;
}

/// Checks that `ref` and `probe` reach c2 with the same live layouts (p
/// and e) in unequal states.
void expect_same_layouts_unequal_states(const Diamond& d,
                                        const BeforeC2& ref,
                                        const BeforeC2& probe) {
  ASSERT_EQ(d.tg.node(d.c2).inputs.front(), d.p);
  for (const char* name : {"m/p", "m/e"}) {
    const ir::GraphNodeId id = d.tg.find(name);
    const ShardSpec layout = layout_in(ref.state, d, id);
    EXPECT_FALSE(layout == ShardSpec::split(3)) << name << " is not live";
    EXPECT_TRUE(layout == layout_in(probe.state, d, id)) << name;
  }
  EXPECT_FALSE(ref.state == probe.state);
}

TEST(FrontierState, IgradFlagDifferenceKeepsStatesApart) {
  // Reference: c1 split_col emits p's input-gradient AllReduce, so c2's
  // split_col does not. Probe: c1 split_row emits none, so c2 must. Both
  // leave p and e replicated: before c2 the live layouts agree and only
  // p's igrad_emitted flag differs.
  const Diamond d;
  const PatternTable table(d.tg, 2, 1);
  ShardingPlan ref = default_plan(d.tg, 2, 1);
  set_pattern(d.tg, &ref, "m/p", "split_row");
  set_pattern(d.tg, &ref, "m/c1", "split_col");
  set_pattern(d.tg, &ref, "m/e", "split_row");
  set_pattern(d.tg, &ref, "m/c2", "split_col");
  ShardingPlan probe = ref;
  set_pattern(d.tg, &probe, "m/c1", "split_row");

  const BeforeC2 a = route_to_c2(d, table, ref);
  const BeforeC2 b = route_to_c2(d, table, probe);
  expect_same_layouts_unequal_states(d, a, b);
  EXPECT_EQ(count_from_p(d, a, CommReason::kInputGrad), 0);
  EXPECT_EQ(count_from_p(d, b, CommReason::kInputGrad), 1);
}

TEST(FrontierState, MaterializedLayoutDifferenceKeepsStatesApart) {
  // Reference: p split_col hands out S(-1); c1 dp converts it to S(0)
  // (an AllToAll; p's materialized list gets S(0)), so c2's dp reuses it.
  // Probe: c1 split_row reads S(-1) as is, so c2 must pay the AllToAll.
  // Neither emits an input gradient for p: before c2 the live layouts and
  // igrad flags agree and only p's materialized list differs.
  const Diamond d;
  const PatternTable table(d.tg, 2, 1);
  ShardingPlan ref = default_plan(d.tg, 2, 1);
  set_pattern(d.tg, &ref, "m/p", "split_col");
  set_pattern(d.tg, &ref, "m/c1", "dp");
  set_pattern(d.tg, &ref, "m/e", "split_row");
  set_pattern(d.tg, &ref, "m/c2", "dp");
  ShardingPlan probe = ref;
  set_pattern(d.tg, &probe, "m/c1", "split_row");

  const BeforeC2 a = route_to_c2(d, table, ref);
  const BeforeC2 b = route_to_c2(d, table, probe);
  expect_same_layouts_unequal_states(d, a, b);
  EXPECT_EQ(count_from_p(d, a, CommReason::kInputGrad), 0);
  EXPECT_EQ(count_from_p(d, b, CommReason::kInputGrad), 0);
  EXPECT_EQ(count_from_p(d, a, CommReason::kReshard), 0);
  EXPECT_EQ(count_from_p(d, b, CommReason::kReshard), 1);
}

TEST(Enumerate, CountsAndExhaustion) {
  Fixture f = t5(1);
  pruning::PruneResult pr = pruning::prune_graph(f.tg);
  std::int64_t encoder_block = 0, decoder_block = 0;
  const PatternTable table(f.tg, 8, 1);
  for (const auto& fam : pr.families) {
    FamilyPlanEnumerator e(table, fam);
    std::int64_t n = 0;
    std::vector<int> c;
    while (e.next(&c)) ++n;
    EXPECT_EQ(n, e.total_plans());
    if (fam.representative.find("encoder/block_0") != std::string::npos)
      encoder_block = n;
    if (fam.representative.find("decoder/block_0") != std::string::npos)
      decoder_block = n;
    // reset() re-yields the same count.
    e.reset();
    std::int64_t again = 0;
    while (e.next(&c)) ++again;
    EXPECT_EQ(again, n);
  }
  // §6.3.1: one encoder block = 6 free matmuls = 3^6 = 729 candidates.
  EXPECT_EQ(encoder_block, 729);
  // A decoder block adds cross-attention (4 more matmuls) = 3^10.
  EXPECT_EQ(decoder_block, 59049);
}

TEST(Routing, EveryZooEventHasAGroupOfTwoOrMore) {
  // Every routed collective names its own group, the tp group resolved to
  // the plan's num_shards; groups of one device are dropped. Costing and
  // simulating a route read e.group with no mesh argument because of this.
  const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  std::size_t events = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const TapGraph tg = ir::lower(g);
    for (int tp : core::sweep_tps(cluster.world())) {
      const int dp = cluster.world() / tp;
      core::TapOptions opts;
      opts.cluster = cluster;
      opts.num_shards = tp;
      opts.dp_replicas = dp;
      opts.threads = 1;
      const core::TapResult searched = core::auto_parallel(tg, opts);
      const RoutedPlan fallback = route_plan(tg, default_plan(tg, tp, dp));
      for (const RoutedPlan* routed : {&searched.routed, &fallback}) {
        ASSERT_TRUE(routed->valid) << dp << "x" << tp << ": "
                                   << routed->error;
        EXPECT_EQ(routed->num_shards, tp);
        EXPECT_EQ(routed->dp_replicas, dp);
        for (const CommEvent& e : routed->comms) {
          ASSERT_GE(e.group, 2) << dp << "x" << tp << " "
                                << reason_of(tg, *routed, e);
          ++events;
        }
      }
    }
  }
  EXPECT_GT(events, 0u);
}

TEST(Routing, RoutedPatternChecksTheIndexAgainstItsMesh) {
  // The 8x4 / 8x1 pair of TablelessRouteReadsThePlansOwnMeshCatalog:
  // index 0 of mha/q names different patterns in the two tables, so a
  // table of the wrong mesh would silently answer with the wrong pattern.
  Fixture f = t5(1);
  RoutedPlan routed = route_plan(f.tg, default_plan(f.tg, 8, 4));
  ASSERT_TRUE(routed.valid) << routed.error;
  const PatternTable own(f.tg, 8, 4), dp1(f.tg, 8, 1);
  const ir::GraphNodeId q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  ASSERT_NE(q, ir::kInvalidGraphNode);
  ASSERT_EQ(routed.pattern_index[static_cast<std::size_t>(q)], 0);
  ASSERT_NE(own.at(q)[0].name, dp1.at(q)[0].name);

  // In range: the table's own entry, not a copy.
  EXPECT_EQ(&routed_pattern(own, routed, q), &own.at(q)[0]);
  // Another mesh's table is refused, by the accessor and by comm_reason.
  EXPECT_THROW(routed_pattern(dp1, routed, q), CheckError);
  ASSERT_FALSE(routed.comms.empty());
  for (const CommEvent& e : routed.comms)
    EXPECT_THROW(comm_reason(dp1, routed, e), CheckError);

  // Out of range: one past the end of the node's row, and negative.
  routed.pattern_index[static_cast<std::size_t>(q)] =
      static_cast<int>(own.at(q).size());
  EXPECT_THROW(routed_pattern(own, routed, q), CheckError);
  routed.pattern_index[static_cast<std::size_t>(q)] = -1;
  EXPECT_THROW(routed_pattern(own, routed, q), CheckError);
}

TEST(Plan, DescribePlanListsPatterns) {
  Fixture f = t5(1);
  ShardingPlan plan = default_plan(f.tg, 8);
  std::string desc = describe_plan(f.tg, plan);
  EXPECT_NE(desc.find("dp"), std::string::npos);
}

}  // namespace
}  // namespace tap::sharding
