// A RouteCursor with a reference route (GlobalRefine's current plan)
// stops routing a probe where its router state rejoins the reference's,
// and takes the reference's tail. Every spliced route must equal a fresh
// route_plan of the same plan, and its CommCostPrefix cost must equal
// comm_cost bit for bit: when the state never rejoins (the probe changes
// a layout that flows to the end), and when the live layouts agree but a
// live producer's materialized layouts or igrad flag does not.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "graph/graph_builder.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "pruning/prune.h"
#include "sharding/pattern.h"
#include "sharding/plan.h"
#include "sharding/routing.h"
#include "util/rng.h"

namespace tap::sharding {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_route(const RoutedPlan& a, const RoutedPlan& b) {
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.pattern_index, b.pattern_index);
  EXPECT_TRUE(a.output_spec == b.output_spec);
  ASSERT_EQ(a.comms.size(), b.comms.size());
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    const CommEvent& x = a.comms[i];
    const CommEvent& y = b.comms[i];
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.bytes, y.bytes) << i;
    EXPECT_EQ(x.count, y.count) << i;
    EXPECT_EQ(x.phase, y.phase) << i;
    EXPECT_EQ(x.group, y.group) << i;
    EXPECT_EQ(x.cross_node, y.cross_node) << i;
    EXPECT_EQ(x.overlappable, y.overlappable) << i;
    EXPECT_EQ(x.node, y.node) << i;
    EXPECT_EQ(x.src, y.src) << i;
    EXPECT_TRUE(x.from_spec == y.from_spec) << i;
    EXPECT_TRUE(x.to_spec == y.to_spec) << i;
    EXPECT_EQ(x.why, y.why) << i;
  }
  ASSERT_EQ(a.edge_conversions.size(), b.edge_conversions.size());
  for (std::size_t i = 0; i < a.edge_conversions.size(); ++i) {
    EXPECT_EQ(a.edge_conversions[i].src, b.edge_conversions[i].src);
    EXPECT_EQ(a.edge_conversions[i].dst, b.edge_conversions[i].dst);
    EXPECT_TRUE(a.edge_conversions[i].from == b.edge_conversions[i].from);
    EXPECT_TRUE(a.edge_conversions[i].to == b.edge_conversions[i].to);
  }
}

/// A whole-graph cursor and cost prefix with a reference, as GlobalRefine
/// drives them.
struct Refiner {
  const ir::TapGraph& tg;
  const PatternTable& table;
  cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  SubgraphScope whole{tg};
  RouteCursor cursor;
  cost::CommCostPrefix prefix;

  Refiner(const ir::TapGraph& g, const PatternTable& t) : tg(g), table(t) {
    cursor.bind(tg, whole, ShardSpec::replicate(), table);
  }

  /// Routes and costs `plan`, checks both against a fresh route and
  /// comm_cost, and returns the nodes routed.
  std::size_t probe(const ShardingPlan& plan) {
    const std::size_t before = cursor.steps();
    const RoutedPlan& routed = cursor.route(plan);
    prefix.truncate(cursor.resumed_comms());
    const RoutedPlan fresh = route_plan(tg, plan, &table);
    expect_same_route(routed, fresh);
    if (routed.valid && fresh.valid) {
      const cost::PlanCost got =
          prefix.cost(routed, plan.num_shards, cluster, {},
                      cursor.spliced_comms(),
                      cursor.reference_comms_at_splice());
      const cost::PlanCost want =
          cost::comm_cost(fresh, plan.num_shards, cluster, {});
      EXPECT_TRUE(same_bits(got.forward_comm_s, want.forward_comm_s));
      EXPECT_TRUE(same_bits(got.backward_comm_s, want.backward_comm_s));
      EXPECT_TRUE(same_bits(got.overlappable_comm_s, want.overlappable_comm_s));
      EXPECT_EQ(got.comm_bytes, want.comm_bytes);
    }
    return cursor.steps() - before;
  }

  void keep() {
    cursor.keep_reference();
    prefix.keep_reference();
  }
};

/// x -> p -> c1 -> e -> c2 -> out, where c2 also reads p (its primary
/// input) next to e: p stays live from c1 to c2, with e in between.
struct Diamond {
  Graph g;
  ir::TapGraph tg;
  ir::GraphNodeId p, c1, e, c2;

  Diamond() {
    GraphBuilder b("diamond");
    const NodeId x = b.placeholder("m/x", {8, 16});
    const NodeId pp = b.matmul("m/p/proj", x, 16);
    const NodeId cc1 = b.matmul("m/c1/proj", pp, 16);
    const NodeId ee = b.matmul("m/e/proj", cc1, 16);
    const NodeId sum = b.add("m/c2/sum", pp, ee);
    const NodeId cc2 = b.matmul("m/c2/proj", sum, 16);
    b.relu("m/out/relu", cc2);
    g = b.take();
    tg = ir::lower(g);
    p = tg.find("m/p");
    c1 = tg.find("m/c1");
    e = tg.find("m/e");
    c2 = tg.find("m/c2");
  }

  int position(ir::GraphNodeId id) const { return tg.topo_position(id); }
};

/// Sets node `id` to the pattern named `name` of `table`.
void set_pattern(const PatternTable& table, ir::GraphNodeId id,
                 const std::string& name, ShardingPlan* plan) {
  const std::vector<ShardingPattern>& pats = table.at(id);
  for (std::size_t i = 0; i < pats.size(); ++i) {
    if (pats[i].name == name) {
      plan->choice[static_cast<std::size_t>(id)] = static_cast<int>(i);
      return;
    }
  }
  FAIL() << "no pattern " << name;
}

TEST(RouteSplice, DiamondGraphShape) {
  const Diamond d;
  ASSERT_NE(d.p, ir::kInvalidGraphNode);
  ASSERT_NE(d.c2, ir::kInvalidGraphNode);
  ASSERT_EQ(d.tg.node(d.c2).inputs.front(), d.p);
  // Visit order x, p, c1, e, c2, out: c2 waits for e.
  EXPECT_LT(d.position(d.c1), d.position(d.e));
  EXPECT_LT(d.position(d.e), d.position(d.c2));
  EXPECT_EQ(d.position(d.c2) + 2, static_cast<int>(d.tg.num_nodes()));
}

TEST(RouteSplice, ExitLayoutChangeNeverRejoins) {
  // The probe changes p's output layout (split_col's S(-1) -> dp's S(0)),
  // and glue follows it to the end: no position agrees, so the probe
  // routes every node from p on.
  GraphBuilder b("chain");
  const NodeId x = b.placeholder("m/x", {8, 16});
  const NodeId p = b.matmul("m/p/proj", x, 16);
  const NodeId g1 = b.relu("m/g1/relu", p);
  const NodeId g2 = b.gelu("m/g2/gelu", g1);
  b.dropout("m/g3/dropout", g2);
  const Graph g = b.take();
  const ir::TapGraph tg = ir::lower(g);
  const PatternTable table(tg, 2, 1);
  const ir::GraphNodeId pid = tg.find("m/p");
  ASSERT_NE(pid, ir::kInvalidGraphNode);

  ShardingPlan ref = default_plan(tg, 2, 1);
  set_pattern(table, pid, "split_col", &ref);
  ShardingPlan probe = ref;
  set_pattern(table, pid, "dp", &probe);

  Refiner r(tg, table);
  r.probe(ref);
  r.keep();
  const RoutedPlan fresh = route_plan(tg, probe, &table);
  ASSERT_TRUE(fresh.valid);
  EXPECT_FALSE(fresh.output_spec.back() ==
               r.cursor.reference().output_spec.back());
  const auto from_p = static_cast<std::size_t>(tg.topo_position(pid));
  EXPECT_EQ(r.probe(probe), tg.num_nodes() - from_p);
  EXPECT_EQ(r.cursor.spliced_comms(), r.cursor.routed().comms.size());
  // Routing the reference again takes its whole tail from p on.
  EXPECT_EQ(r.probe(ref), 0u);
}

TEST(RouteSplice, IgradFlagDifferenceKeepsRouting) {
  // Reference: c1 split_col emits p's input-gradient AllReduce, so c2's
  // split_col does not. Probe: c1 split_row emits none, so c2 must. Both
  // leave p and e replicated: at c2 the live layouts agree and only p's
  // igrad_emitted entry differs.
  const Diamond d;
  const PatternTable table(d.tg, 2, 1);
  ShardingPlan ref = default_plan(d.tg, 2, 1);
  set_pattern(table, d.p, "split_row", &ref);
  set_pattern(table, d.c1, "split_col", &ref);
  set_pattern(table, d.e, "split_row", &ref);
  set_pattern(table, d.c2, "split_col", &ref);
  ShardingPlan probe = ref;
  set_pattern(table, d.c1, "split_row", &probe);

  Refiner r(d.tg, table);
  r.probe(ref);
  r.keep();
  const RoutedPlan& kept = r.cursor.reference();
  const RoutedPlan fresh = route_plan(d.tg, probe, &table);
  ASSERT_TRUE(fresh.valid);
  for (ir::GraphNodeId live : {d.p, d.e}) {
    EXPECT_TRUE(fresh.output_spec[static_cast<std::size_t>(live)] ==
                kept.output_spec[static_cast<std::size_t>(live)]);
  }
  auto igrads = [&](const RoutedPlan& rp) {
    int n = 0;
    for (const CommEvent& ev : rp.comms)
      n += ev.why == CommReason::kInputGrad && ev.node == d.c2;
    return n;
  };
  EXPECT_EQ(igrads(kept), 0);
  EXPECT_EQ(igrads(fresh), 1);
  // c1, e and c2 are routed; the probe takes the reference's tail (out)
  // only past c2, where p is no longer live.
  EXPECT_EQ(r.probe(probe), 3u);
  // Back to the reference: the state before c1 agrees, so nothing routes.
  EXPECT_EQ(r.probe(ref), 0u);
}

TEST(RouteSplice, MaterializedLayoutDifferenceKeepsRouting) {
  // Reference: p split_col hands out S(-1); c1 dp converts it to S(0)
  // (an AllToAll; p's materialized list gets S(0)), so c2's dp reuses it.
  // Probe: c1 split_row reads S(-1) as is, so c2 must pay the AllToAll.
  // Neither emits an input gradient for p: at c2 the live layouts and
  // igrad flags agree and only p's materialized list differs.
  const Diamond d;
  const PatternTable table(d.tg, 2, 1);
  ShardingPlan ref = default_plan(d.tg, 2, 1);
  set_pattern(table, d.p, "split_col", &ref);
  set_pattern(table, d.c1, "dp", &ref);
  set_pattern(table, d.e, "split_row", &ref);
  set_pattern(table, d.c2, "dp", &ref);
  ShardingPlan probe = ref;
  set_pattern(table, d.c1, "split_row", &probe);

  Refiner r(d.tg, table);
  r.probe(ref);
  r.keep();
  const RoutedPlan& kept = r.cursor.reference();
  const RoutedPlan fresh = route_plan(d.tg, probe, &table);
  ASSERT_TRUE(fresh.valid);
  for (ir::GraphNodeId live : {d.p, d.e}) {
    EXPECT_TRUE(fresh.output_spec[static_cast<std::size_t>(live)] ==
                kept.output_spec[static_cast<std::size_t>(live)]);
  }
  auto count = [&](const RoutedPlan& rp, CommReason why) {
    int n = 0;
    for (const CommEvent& ev : rp.comms) n += ev.why == why && ev.src == d.p;
    return n;
  };
  EXPECT_EQ(count(kept, CommReason::kInputGrad), 0);
  EXPECT_EQ(count(fresh, CommReason::kInputGrad), 0);
  EXPECT_EQ(count(kept, CommReason::kReshard), 1);   // at c1
  EXPECT_EQ(count(fresh, CommReason::kReshard), 1);  // at c2
  EXPECT_EQ(r.probe(probe), 3u);
  EXPECT_EQ(r.probe(ref), 0u);
}

TEST(RouteSplice, ZooFamilyRevertsMatchFreshRoutes) {
  // GlobalRefine's probes on random assemblies: every family revert,
  // against the reference kept at each (randomly chosen) winner. Splices
  // must happen, and some probes must route to the end.
  util::Rng rng(20261017);
  std::size_t spliced = 0, unspliced = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    for (int tp : {2, 8}) {
      const PatternTable table(tg, tp, 16 / tp);
      Refiner r(tg, table);
      ShardingPlan current = default_plan(tg, tp, 16 / tp);
      for (const pruning::SubgraphFamily& f : pr.families) {
        std::vector<int> choice;
        for (ir::GraphNodeId id : f.member_nodes)
          choice.push_back(
              static_cast<int>(rng.next_below(table.at(id).size())));
        apply_family_choice(f, choice, &current);
      }
      r.probe(current);
      if (!r.cursor.routed().valid) continue;
      r.keep();
      for (const pruning::SubgraphFamily& f : pr.families) {
        ShardingPlan probe = current;
        apply_family_choice(f, std::vector<int>(f.member_nodes.size(), 0),
                            &probe);
        if (probe.choice == current.choice) continue;
        r.probe(probe);
        if (!r.cursor.routed().valid) continue;
        const bool took_tail =
            r.cursor.spliced_comms() < r.cursor.routed().comms.size();
        (took_tail ? spliced : unspliced) += 1;
        if (rng.next_below(3) == 0) {  // the probe wins
          current = probe;
          r.keep();
        }
      }
    }
  }
  EXPECT_GT(spliced, 20u);
  EXPECT_GT(unspliced, 0u);
}

}  // namespace
}  // namespace tap::sharding
