// Per-candidate staging (FamilyScope, FamilySearchContext::stage): the
// precomputed pieces must reproduce what they replace exactly —
// backward-window terms bit for bit, reused-scratch subgraph routes entry
// for entry, on-demand reason text byte for byte — and the plans served
// for a few zoo specs must keep the bytes recorded before staging was
// made O(members).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/family_search.h"
#include "core/tap.h"
#include "cost/cost_model.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "pruning/prune.h"
#include "service/fingerprint.h"
#include "service/wire.h"
#include "sharding/enumerate.h"
#include "sharding/routing.h"
#include "util/hash.h"

namespace tap {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool weighted(const ir::TapGraph& tg, const pruning::SubgraphFamily& f) {
  for (ir::GraphNodeId id : f.member_nodes)
    if (tg.node(id).has_weight()) return true;
  return false;
}

/// Every `stride`-th candidate of `family` (about `samples` of them,
/// always including the first), with its member choices written into a
/// copy of `base`.
std::vector<sharding::ShardingPlan> sample_candidates(
    const sharding::PatternTable& table, const pruning::SubgraphFamily& family,
    const sharding::ShardingPlan& base, std::int64_t samples) {
  sharding::FamilyPlanEnumerator e(table, family);
  const std::int64_t stride = std::max<std::int64_t>(
      1, e.total_plans() / std::max<std::int64_t>(1, samples));
  std::vector<sharding::ShardingPlan> out;
  std::vector<int> choice;
  for (std::int64_t i = 0; e.next(&choice); ++i) {
    if (i % stride != 0) continue;
    out.push_back(base);
    sharding::apply_family_choice(family, choice, &out.back());
  }
  return out;
}

TEST(CandidateStaging, WindowTermsMatchBackwardComputeWindowAcrossZoo) {
  const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  int checked = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    for (int tp : core::sweep_tps(cluster.world())) {
      const int dp = cluster.world() / tp;
      SCOPED_TRACE("tp=" + std::to_string(tp));
      const sharding::PatternTable table(tg, tp, dp);
      const sharding::ShardingPlan base = sharding::default_plan(tg, tp, dp);

      const sharding::RoutedPlan whole = sharding::route_plan(tg, base, &table);
      ASSERT_TRUE(whole.valid) << whole.error;
      EXPECT_EQ(cost::BackwardWindowTerms(tg, nullptr, tp, dp, cluster)
                    .window(whole, table),
                cost::backward_compute_window(tg, whole, nullptr, cluster));

      for (const pruning::SubgraphFamily& fam : pr.families) {
        if (!weighted(tg, fam)) continue;
        const cost::BackwardWindowTerms terms(tg, &fam.member_nodes, tp, dp,
                                              cluster);
        for (const auto& plan :
             sample_candidates(table, fam, base, /*samples=*/6)) {
          const sharding::RoutedPlan routed = sharding::route_subgraph(
              tg, plan, fam.member_nodes, sharding::ShardSpec::replicate(),
              &table);
          if (!routed.valid) continue;
          EXPECT_EQ(terms.window(routed, table),
                    cost::backward_compute_window(tg, routed,
                                                  &fam.member_nodes, cluster))
              << fam.representative;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 500);
}

TEST(CandidateStaging, TableEnumeratorCountsMatchPatternsFor) {
  // The enumerator counts each member's row of the mesh's PatternTable,
  // which is patterns_for at the mesh's own tp and dp: the catalog every
  // route reads the plan's indices against.
  for (int nodes : {2, 4}) {
    const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(nodes);
    for (const models::ZooEntry& entry : models::table1_zoo()) {
      SCOPED_TRACE(entry.model);
      const Graph g = entry.build();
      const ir::TapGraph tg = ir::lower(g);
      const pruning::PruneResult pr = pruning::prune_graph(tg);
      for (int tp : core::sweep_tps(cluster.world())) {
        const int dp = cluster.world() / tp;
        const sharding::PatternTable table(tg, tp, dp);
        for (const pruning::SubgraphFamily& fam : pr.families) {
          const sharding::FamilyPlanEnumerator e(table, fam);
          ASSERT_EQ(e.counts().size(), fam.member_nodes.size());
          for (std::size_t j = 0; j < e.counts().size(); ++j) {
            const ir::GraphNodeId id = fam.member_nodes[j];
            const auto want = sharding::patterns_for(tg, id, tp, dp).size();
            ASSERT_EQ(static_cast<std::size_t>(e.counts()[j]), want)
                << fam.representative << " " << dp << "x" << tp;
          }
        }
      }
    }
  }
}

/// Member entries, comms and edge conversions of two routes of one
/// subgraph.
void expect_same_subgraph_route(const sharding::RoutedPlan& a,
                                const sharding::RoutedPlan& b,
                                const std::vector<ir::GraphNodeId>& members) {
  ASSERT_EQ(a.valid, b.valid) << b.error;
  EXPECT_EQ(a.error, b.error);
  if (!b.valid) return;
  for (ir::GraphNodeId id : members) {
    const auto i = static_cast<std::size_t>(id);
    EXPECT_EQ(a.output_spec[i], b.output_spec[i]) << "node " << id;
    EXPECT_EQ(a.pattern_index[i], b.pattern_index[i]) << "node " << id;
  }
  ASSERT_EQ(a.comms.size(), b.comms.size());
  for (std::size_t k = 0; k < b.comms.size(); ++k) {
    const sharding::CommEvent& x = a.comms[k];
    const sharding::CommEvent& y = b.comms[k];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.phase, y.phase);
    EXPECT_EQ(x.group, y.group);
    EXPECT_EQ(x.cross_node, y.cross_node);
    EXPECT_EQ(x.overlappable, y.overlappable);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.from_spec, y.from_spec);
    EXPECT_EQ(x.to_spec, y.to_spec);
    EXPECT_EQ(x.why, y.why);
  }
  ASSERT_EQ(a.edge_conversions.size(), b.edge_conversions.size());
  for (std::size_t k = 0; k < b.edge_conversions.size(); ++k) {
    EXPECT_EQ(a.edge_conversions[k].src, b.edge_conversions[k].src);
    EXPECT_EQ(a.edge_conversions[k].dst, b.edge_conversions[k].dst);
    EXPECT_EQ(a.edge_conversions[k].from, b.edge_conversions[k].from);
    EXPECT_EQ(a.edge_conversions[k].to, b.edge_conversions[k].to);
  }
}

TEST(CandidateStaging, ReusedScratchRoutesMatchFreshRoutesAcrossFamilies) {
  // One scratch and one output buffer carry a sequence of different
  // families, candidates and boundaries, as a search thread's CostArena
  // does; each route must define what a fresh route_subgraph defines.
  // CLIP-Base at 2x8: some of its candidates fail to route.
  const Graph g = models::table1_zoo()[1].build();  // CLIP-Base
  const ir::TapGraph tg = ir::lower(g);
  const pruning::PruneResult pr = pruning::prune_graph(tg);
  const sharding::PatternTable table(tg, 8, 2);
  const sharding::ShardingPlan base = sharding::default_plan(tg, 8, 2);
  const sharding::ShardSpec boundaries[] = {sharding::ShardSpec::replicate(),
                                            sharding::ShardSpec::split(0),
                                            sharding::ShardSpec::split(-1)};
  sharding::RoutingScratch scratch;
  sharding::RoutedPlan reused;
  int routes = 0, valid = 0;
  for (int round = 0; round < 2; ++round) {
    for (const pruning::SubgraphFamily& fam : pr.families) {
      const sharding::SubgraphScope scope(tg, fam.member_nodes);
      for (const auto& plan :
           sample_candidates(table, fam, base, /*samples=*/5)) {
        for (const sharding::ShardSpec& boundary : boundaries) {
          sharding::route_subgraph_into(tg, plan, scope, boundary, table,
                                        &scratch, &reused);
          const sharding::RoutedPlan fresh = sharding::route_subgraph(
              tg, plan, fam.member_nodes, boundary, &table);
          expect_same_subgraph_route(reused, fresh, fam.member_nodes);
          EXPECT_EQ(sharding::subgraph_exit_spec(reused, scope),
                    sharding::subgraph_exit_spec(fresh, scope));
          ++routes;
          valid += fresh.valid ? 1 : 0;
        }
      }
    }
  }
  // The sequence must exercise both outcomes and resharding.
  EXPECT_GT(valid, 0);
  EXPECT_LT(valid, routes);
}

TEST(CandidateStaging, StagedBatchMatchesEvaluate) {
  // perfbench's probe path, stage() + comm_cost_batch, against the
  // planner's evaluate(): same validity, comm bits, weight bytes and
  // SearchStats. One arena carries every family, so batches are refilled
  // after reset() with lanes of every depth, and each family's last
  // batch is partial.
  auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  cost::CostArena arena;
  int full = 0, partial = 0, lanes = 0;
  for (const char* model : {"t5", "bert", "gpt3"}) {
    for (int dp : {1, 2}) {
      SCOPED_TRACE(std::string(model) + " dp=" + std::to_string(dp));
      service::ModelSpec spec;
      spec.model = model;
      spec.layers = 2;
      spec.nodes = dp;
      spec.dp = dp;
      spec.tp = 8;
      const Graph g = service::build_spec_model(spec);
      const ir::TapGraph tg = ir::lower(g);
      const pruning::PruneResult pr = pruning::prune_graph(tg);
      const core::TapOptions opts = service::options_for_spec(spec, 1);
      const sharding::PatternTable table(tg, 8, dp);
      const core::FamilySearchContext ctx(tg, opts, table);
      const sharding::ShardingPlan base = sharding::default_plan(tg, 8, dp);
      for (const pruning::SubgraphFamily& fam : pr.families) {
        if (!weighted(tg, fam)) continue;
        const core::FamilyScope scope(ctx, fam);
        std::vector<core::FamilyScore> expected;
        auto flush = [&] {
          ASSERT_EQ(arena.batch.lanes(), static_cast<int>(expected.size()));
          if (arena.batch.empty()) return;
          (arena.batch.full() ? full : partial) += 1;
          cost::comm_cost_batch(arena.batch, opts.cluster, arena.results);
          for (int l = 0; l < arena.batch.lanes(); ++l) {
            EXPECT_EQ(bits(arena.results[l].total()),
                      bits(expected[static_cast<std::size_t>(l)].comm))
                << fam.representative << " lane " << l;
          }
          lanes += arena.batch.lanes();
          arena.batch.reset();
          expected.clear();
        };
        for (const auto& plan :
             sample_candidates(table, fam, base, /*samples=*/20)) {
          core::FamilyScore score;
          core::SearchStats se, ss;
          core::FamilySearchWork work;
          std::int64_t weight_bytes = -1;
          const bool ok_e = ctx.evaluate(plan, scope, &score, &se, &work);
          const bool ok_s = ctx.stage(plan, fam, &arena, &weight_bytes, &ss);
          ASSERT_EQ(ok_e, ok_s) << fam.representative;
          EXPECT_EQ(se.candidate_plans, ss.candidate_plans);
          EXPECT_EQ(se.valid_plans, ss.valid_plans);
          EXPECT_EQ(se.nodes_visited, ss.nodes_visited);
          EXPECT_EQ(se.cost_queries, ss.cost_queries);
          if (!ok_s) continue;
          EXPECT_EQ(weight_bytes, score.weight_bytes);
          expected.push_back(score);
          if (arena.batch.full()) flush();
        }
        flush();
      }
    }
  }
  EXPECT_GT(full, 0);
  EXPECT_GT(partial, 0);

  // An event-free candidate is a legal lane costing exactly zero, also
  // in a batch whose lanes held deep routes before reset().
  sharding::RoutedPlan empty;
  empty.valid = true;
  empty.num_shards = 8;
  arena.batch.add_candidate(&empty, {});
  EXPECT_EQ(arena.batch.lanes(), 1);
  cost::comm_cost_batch(arena.batch, cost::ClusterSpec{}, arena.results);
  EXPECT_EQ(bits(arena.results[0].forward_comm_s), bits(0.0));
  EXPECT_EQ(bits(arena.results[0].backward_comm_s), bits(0.0));
  EXPECT_EQ(bits(arena.results[0].overlappable_comm_s), bits(0.0));
  EXPECT_EQ(arena.results[0].comm_bytes, 0);
  EXPECT_GT(lanes, 100);
}

// ---------------------------------------------------------------------------
// Recorded bytes
// ---------------------------------------------------------------------------

/// FNV-1a digest of the reason text of every event of `r`, in order.
std::string reason_digest(const ir::TapGraph& tg,
                          const sharding::RoutedPlan& r) {
  std::uint64_t h = util::kFnvOffset;
  for (const sharding::CommEvent& e : r.comms) {
    h = util::hash_str(sharding::comm_reason(tg, r, e), h);
    h = util::hash_str("\n", h);
  }
  return hex64(h);
}

TEST(CandidateStaging, ReasonTextMatchesRecordedText) {
  // Digests of the reason strings the router built before reasons became
  // tags, over the planner's plan for T5, MoE and BERT on several meshes,
  // each followed by the digest of a table-less route of the same plan.
  // The two halves are equal: a table-less route builds the table of the
  // plan's own mesh, the catalog the search used. The last two are meshes
  // where the batch-split pattern's gate depends on dp. T5 at 2x8 was
  // re-recorded when its decoder block became searched exactly: its
  // plan and cost equal ExhaustivePolicy's.
  struct Case {
    std::string model;
    int nodes, tp, dp;
    const char* digest;
  };
  const Case cases[] = {
      {"t5", 2, 8, 2, "a3d76efbf9d6d664a3d76efbf9d6d664"},
      {"moe", 2, 8, 2, "d85149baaae2c3cfd85149baaae2c3cf"},
      {"t5", 1, 8, 1, "0f11a4d8d377c67e0f11a4d8d377c67e"},
      {"t5", 4, 8, 4, "daeaf4cf813ec709daeaf4cf813ec709"},
      {"bert", 2, 1, 16, "eff2a35c2d4a444ceff2a35c2d4a444c"},
  };
  for (const Case& c : cases) {
    service::ModelSpec spec;
    spec.model = c.model;
    spec.layers = 2;
    spec.nodes = c.nodes;
    const Graph g = service::build_spec_model(spec);
    const ir::TapGraph tg = ir::lower(g);
    core::TapOptions opts = service::options_for_spec(spec, 1);
    opts.num_shards = c.tp;
    opts.dp_replicas = c.dp;
    const core::TapResult r = core::auto_parallel(tg, opts);
    ASSERT_TRUE(r.routed.valid);
    const sharding::RoutedPlan tableless =
        sharding::route_plan(tg, r.best_plan);
    ASSERT_TRUE(tableless.valid);
    EXPECT_EQ(reason_digest(tg, r.routed) + reason_digest(tg, tableless),
              c.digest)
        << c.model << " " << c.dp << "x" << c.tp;
  }
}

TEST(CandidateStaging, PlanResponseBytesMatchRecordedDigests) {
  // plan_response_json digests recorded at response version 3 and key
  // version 2, when every family became searched exactly. Each plan, its
  // cost bits and its statistics were checked equal to ExhaustivePolicy's
  // before recording.
  struct Case {
    std::string model;
    int layers, dp, tp;  // dp = tp = 0: mesh sweep
    const char* digest;
  };
  const Case cases[] = {
      {"t5", 4, 0, 0, "a3df9525483caf0f"},
      {"bert", 4, 0, 0, "d400d959baf0b974"},
      {"moe", 4, 0, 0, "c854f613e2308979"},
      {"gpt3", 4, 2, 8, "e51acd2b8eabb3a8"},
      {"t5", 6, 4, 4, "172d875b5438151f"},
      {"resnet50", 50, 0, 0, "977b6d5a8f89ece3"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.model + " layers=" + std::to_string(c.layers) + " mesh=" +
                 std::to_string(c.dp) + "x" + std::to_string(c.tp));
    service::ModelSpec spec;
    spec.model = c.model;
    spec.layers = c.layers;
    spec.dp = c.dp;
    spec.tp = c.tp;
    const Graph g = service::build_spec_model(spec);
    const ir::TapGraph tg = ir::lower(g);
    const core::TapOptions opts = service::options_for_spec(spec, 1);
    const core::TapResult r = spec.sweep()
                                  ? core::auto_parallel_best_mesh(tg, opts)
                                  : core::auto_parallel(tg, opts);
    const std::string bytes = service::plan_response_json(
        tg, service::make_plan_key(tg, opts, spec.sweep()), r);
    EXPECT_EQ(hex64(util::hash_str(bytes)), c.digest);
  }
}

}  // namespace
}  // namespace tap
