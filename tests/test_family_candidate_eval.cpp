// Incremental candidate evaluation (cost::FamilyCandidateEvaluator over
// sharding::RouteCursor and cost::CommCostPrefix): every candidate must
// route and cost exactly as a fresh route_subgraph + comm_cost does —
// validity, cost doubles bit for bit, weight bytes, events, edge
// conversions and member layouts — whatever sequence of candidates,
// families and meshes the evaluator saw before. The greedy policy's plans
// must keep the bytes recorded before evaluation became incremental.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/family_search.h"
#include "core/tap.h"
#include "cost/candidate_eval.h"
#include "cost/comm_batch.h"
#include "cost/cost_model.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "pruning/prune.h"
#include "service/fingerprint.h"
#include "service/wire.h"
#include "sharding/enumerate.h"
#include "sharding/routing.h"
#include "util/hash.h"
#include "util/rng.h"

namespace tap {
namespace {

bool weighted(const ir::TapGraph& tg, const pruning::SubgraphFamily& f) {
  for (ir::GraphNodeId id : f.member_nodes)
    if (tg.node(id).has_weight()) return true;
  return false;
}

service::ModelSpec model_spec(const char* model, int layers) {
  service::ModelSpec spec;
  spec.model = model;
  spec.layers = layers;
  return spec;
}

/// The plan_cold zoo: the benchmark's cold-search models on 2x8 V100.
std::vector<service::ModelSpec> zoo_specs() {
  std::vector<service::ModelSpec> specs;
  specs.push_back(model_spec("t5", 8));
  specs.push_back(model_spec("t5", 24));
  specs.push_back(model_spec("t5", 48));
  specs.push_back(model_spec("bert", 24));
  specs.push_back(model_spec("gpt3", 8));
  specs.push_back(model_spec("moe", 8));
  specs.push_back(model_spec("resnet50", 50));
  return specs;
}

/// A fresh, cursor-free evaluation of one candidate: the probe route, the
/// steady-state route at its exit layout (each into new buffers), and
/// comm_cost with the family's backward window.
struct FreshScore {
  bool valid = false;
  bool steady = false;  ///< the probe's exit layout is not replicated
  sharding::RoutedPlan routed;
  cost::PlanCost cost;
};

FreshScore fresh_score(const core::FamilySearchContext& ctx,
                       const core::FamilyScope& scope,
                       const sharding::ShardingPlan& plan) {
  FreshScore out;
  const ir::TapGraph& tg = ctx.graph();
  auto route = [&](const sharding::ShardSpec& boundary) {
    sharding::RoutingScratch scratch;
    sharding::RoutedPlan routed;
    sharding::route_subgraph_into(tg, plan, scope.routing(), boundary,
                                  ctx.table(), &scratch, &routed);
    return routed;
  };
  const sharding::RoutedPlan probe = route(sharding::ShardSpec::replicate());
  if (!probe.valid) return out;
  const sharding::ShardSpec exit =
      sharding::subgraph_exit_spec(probe, scope.routing());
  out.steady = exit != sharding::ShardSpec::replicate();
  out.routed = route(exit);
  if (!out.routed.valid) return out;
  out.valid = true;
  // The window terms equal backward_compute_window bit for bit
  // (CandidateStaging.WindowTermsMatchBackwardComputeWindowAcrossZoo).
  cost::CostOptions copts = ctx.options().cost;
  copts.overlap_window_s = scope.window().window(out.routed, ctx.table());
  out.cost = cost::comm_cost(out.routed, plan.num_shards,
                             ctx.options().cluster, copts);
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when the two routes define the same member layouts, events and
/// edge conversions; else a description of the first difference.
std::string route_difference(const sharding::RoutedPlan& a,
                             const sharding::RoutedPlan& b,
                             const std::vector<ir::GraphNodeId>& members) {
  std::ostringstream os;
  for (ir::GraphNodeId id : members) {
    const auto i = static_cast<std::size_t>(id);
    if (a.output_spec[i] != b.output_spec[i] ||
        a.pattern_index[i] != b.pattern_index[i]) {
      os << "member " << id << " layout/pattern";
      return os.str();
    }
  }
  if (a.comms.size() != b.comms.size()) {
    os << "comms " << a.comms.size() << " vs " << b.comms.size();
    return os.str();
  }
  for (std::size_t k = 0; k < a.comms.size(); ++k) {
    const sharding::CommEvent& x = a.comms[k];
    const sharding::CommEvent& y = b.comms[k];
    if (x.kind != y.kind || x.bytes != y.bytes || x.count != y.count ||
        x.phase != y.phase || x.group != y.group ||
        x.cross_node != y.cross_node || x.overlappable != y.overlappable ||
        x.node != y.node || x.src != y.src || x.from_spec != y.from_spec ||
        x.to_spec != y.to_spec || x.why != y.why) {
      os << "comm event " << k;
      return os.str();
    }
  }
  if (a.edge_conversions.size() != b.edge_conversions.size()) {
    os << "edge conversions " << a.edge_conversions.size() << " vs "
       << b.edge_conversions.size();
    return os.str();
  }
  for (std::size_t k = 0; k < a.edge_conversions.size(); ++k) {
    const sharding::EdgeConversion& x = a.edge_conversions[k];
    const sharding::EdgeConversion& y = b.edge_conversions[k];
    if (x.src != y.src || x.dst != y.dst || x.from != y.from || x.to != y.to) {
      os << "edge conversion " << k;
      return os.str();
    }
  }
  return {};
}

/// Empty when the evaluator's result for `plan` matches a fresh
/// evaluation; else a description of the first difference. `*fresh_out`
/// receives the fresh evaluation.
std::string check_candidate(const core::FamilySearchContext& ctx,
                            const core::FamilyScope& scope,
                            cost::FamilyCandidateEvaluator* eval,
                            const sharding::ShardingPlan& plan,
                            FreshScore* fresh_out) {
  core::FamilyScore score;
  core::SearchStats stats;
  const bool valid = ctx.evaluate(plan, scope, eval, &score, &stats);
  FreshScore& fresh = *fresh_out;
  fresh = fresh_score(ctx, scope, plan);
  if (valid != fresh.valid) return valid ? "valid, fresh invalid" : "invalid";
  const std::vector<ir::GraphNodeId>& members = scope.family().member_nodes;
  const auto visited = static_cast<std::int64_t>(members.size());
  if (stats.nodes_visited != visited || stats.cost_queries != (valid ? 1 : 0))
    return "search statistics";
  if (!valid) return {};
  if (!same_bits(score.comm, fresh.cost.total())) return "comm cost bits";
  if (score.weight_bytes != scope.weight_bytes(plan)) return "weight bytes";
  std::string diff = route_difference(eval->routed(), fresh.routed, members);
  if (!diff.empty()) return diff;
  // The full PlanCost, through the evaluator alone.
  cost::PlanCost c;
  if (!eval->evaluate(plan, &c)) return "re-evaluation invalid";
  if (!same_bits(c.forward_comm_s, fresh.cost.forward_comm_s) ||
      !same_bits(c.backward_comm_s, fresh.cost.backward_comm_s) ||
      !same_bits(c.overlappable_comm_s, fresh.cost.overlappable_comm_s) ||
      c.comm_bytes != fresh.cost.comm_bytes)
    return "PlanCost bits";
  return {};
}

TEST(FamilyCandidateEvaluator, EveryZooCandidateMatchesFreshRouteAndCost) {
  // Every candidate of every weighted family of the plan_cold zoo, and of
  // CLIP-Base (whose candidates fail to route at tp >= 2; the zoo's all
  // route), at all meshes of 16 GPUs, in enumeration order, through one
  // evaluator (the calling thread's arena) re-bound per family. Families
  // past max_plans_per_family (the T5 decoder block's 3^10), which the
  // planner searches greedily, are walked for their first
  // max_plans_per_family candidates.
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const service::ModelSpec& spec : zoo_specs()) {
    graphs.emplace_back(spec.model + " " + std::to_string(spec.layers),
                        service::build_spec_model(spec));
  }
  graphs.emplace_back("CLIP-Base", models::table1_zoo()[1].build());
  cost::FamilyCandidateEvaluator& eval = cost::tls_cost_arena().candidates;
  std::int64_t checked = 0, invalid = 0;
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    core::TapOptions opts;
    opts.cluster = cost::ClusterSpec::v100_cluster(2);
    opts.threads = 1;
    const int world = opts.cluster.world();
    for (int tp = 1; tp <= world; ++tp) {
      if (world % tp != 0) continue;
      SCOPED_TRACE("tp=" + std::to_string(tp));
      opts.num_shards = tp;
      opts.dp_replicas = world / tp;
      const sharding::PatternTable table(tg, tp, world / tp);
      const core::FamilySearchContext ctx(tg, opts, table);
      sharding::ShardingPlan plan = sharding::default_plan(tg, tp, world / tp);
      for (const pruning::SubgraphFamily& fam : pr.families) {
        if (!weighted(tg, fam)) continue;
        const core::FamilyScope scope(ctx, fam);
        ctx.bind(scope, &eval);
        sharding::FamilyPlanEnumerator e(table, fam);
        std::vector<int> choice;
        for (std::int64_t n = 0;
             n < opts.max_plans_per_family && e.next(&choice); ++n) {
          sharding::apply_family_choice(fam, choice, &plan);
          FreshScore fresh;
          const std::string diff =
              check_candidate(ctx, scope, &eval, plan, &fresh);
          ASSERT_TRUE(diff.empty())
              << fam.representative << " candidate " << n << ": " << diff;
          ++checked;
          invalid += fresh.valid ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(checked, 15000);
  EXPECT_GT(invalid, 0);
}

TEST(FamilyCandidateEvaluator, RandomSequencesMatchFreshRouteAndCost) {
  // Seeded random candidate sequences through ONE evaluator re-bound
  // across families and meshes: whole random candidates, one- and
  // two-member edits of the previous one (resumes at every depth), and
  // out-of-range choices that fail mid-route.
  struct Case {
    const char* model;
    int layers, nodes, tp, dp;
  };
  const Case cases[] = {
      {"t5", 2, 4, 8, 4},          // batch 16 does not split 32 ways: failures
      {"t5", 2, 2, 4, 4},          // a 16-GPU mesh
      {"moe", 2, 2, 8, 2},         // expert AllToAlls
      {"bert", 2, 2, 2, 8},        // dp-heavy
      {"resnet50", 50, 2, 16, 1},  // conv layouts
  };
  cost::FamilyCandidateEvaluator eval;
  util::Rng rng(20261017);
  std::int64_t checked = 0, invalid = 0, steady = 0;
  for (int round = 0; round < 2; ++round) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.model) + " " + std::to_string(c.dp) + "x" +
                   std::to_string(c.tp));
      service::ModelSpec spec;
      spec.model = c.model;
      spec.layers = c.layers;
      spec.nodes = c.nodes;
      const Graph g = service::build_spec_model(spec);
      const ir::TapGraph tg = ir::lower(g);
      const pruning::PruneResult pr = pruning::prune_graph(tg);
      core::TapOptions opts = service::options_for_spec(spec, 1);
      opts.num_shards = c.tp;
      opts.dp_replicas = c.dp;
      const sharding::PatternTable table(tg, c.tp, c.dp);
      const core::FamilySearchContext ctx(tg, opts, table);
      sharding::ShardingPlan plan = sharding::default_plan(tg, c.tp, c.dp);
      for (const pruning::SubgraphFamily& fam : pr.families) {
        if (!weighted(tg, fam)) continue;
        const core::FamilyScope scope(ctx, fam);
        ctx.bind(scope, &eval);
        const std::vector<ir::GraphNodeId>& members = fam.member_nodes;
        auto random_choice = [&](ir::GraphNodeId id) {
          const auto n = static_cast<std::uint64_t>(table.at(id).size());
          // One draw in 16 picks the first index past the catalog.
          if (rng.next_below(16) == 0) return static_cast<int>(n);
          return static_cast<int>(rng.next_below(n));
        };
        for (int k = 0; k < 200; ++k) {
          const std::uint64_t kind = rng.next_below(4);
          if (kind == 0 || k == 0) {
            for (ir::GraphNodeId id : members)
              plan.choice[static_cast<std::size_t>(id)] = random_choice(id);
          } else {
            const int edits = kind == 3 ? 2 : 1;
            for (int e = 0; e < edits; ++e) {
              const ir::GraphNodeId id =
                  members[rng.next_below(members.size())];
              plan.choice[static_cast<std::size_t>(id)] = random_choice(id);
            }
          }
          FreshScore fresh;
          const std::string diff =
              check_candidate(ctx, scope, &eval, plan, &fresh);
          ASSERT_TRUE(diff.empty()) << fam.representative << " step " << k
                                    << ": " << diff;
          ++checked;
          invalid += fresh.valid ? 0 : 1;
          steady += fresh.valid && fresh.steady ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(checked, 5000);
  EXPECT_GT(invalid, 200);  // failing candidates, at several depths
  EXPECT_GT(steady, 200);  // candidates on a non-replicated exit layout
}

TEST(FamilyCandidateEvaluator, ExitLayoutsAlternateAcrossSteadyStateLanes) {
  // Candidates whose exit layouts alternate R, S, R, S', ... each resume
  // from their own lane's last route, and still match fresh evaluations.
  const Graph g = models::build_transformer(models::t5_with_layers(2));
  const ir::TapGraph tg = ir::lower(g);
  const pruning::PruneResult pr = pruning::prune_graph(tg);
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  const sharding::PatternTable table(tg, 8, 2);
  const core::FamilySearchContext ctx(tg, opts, table);
  const sharding::ShardingPlan base = sharding::default_plan(tg, 8, 2);
  cost::FamilyCandidateEvaluator eval;
  int alternations = 0;
  for (const pruning::SubgraphFamily& fam : pr.families) {
    sharding::FamilyPlanEnumerator e(table, fam);
    // The encoder block: 3^6 candidates over 13 members.
    if (fam.member_nodes.size() < 10 || e.total_plans() > 1000) continue;
    const core::FamilyScope scope(ctx, fam);
    // Sort the family's candidates by exit layout, then interleave them.
    std::vector<std::vector<sharding::ShardingPlan>> by_exit;
    std::vector<sharding::ShardSpec> exits;
    std::vector<int> choice;
    sharding::ShardingPlan plan = base;
    while (e.next(&choice)) {
      sharding::apply_family_choice(fam, choice, &plan);
      const sharding::RoutedPlan probe = sharding::route_subgraph(
          tg, plan, fam.member_nodes, sharding::ShardSpec::replicate(), &table);
      if (!probe.valid) continue;
      const sharding::ShardSpec exit =
          sharding::subgraph_exit_spec(probe, scope.routing());
      std::size_t i = 0;
      while (i < exits.size() && exits[i] != exit) ++i;
      if (i == exits.size()) {
        exits.push_back(exit);
        by_exit.emplace_back();
      }
      by_exit[i].push_back(plan);
    }
    ASSERT_GE(exits.size(), 2u) << fam.representative;
    ctx.bind(scope, &eval);
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (const auto& plans : by_exit) {
        if (k >= plans.size()) continue;
        any = true;
        FreshScore fresh;
        const std::string diff =
            check_candidate(ctx, scope, &eval, plans[k], &fresh);
        ASSERT_TRUE(diff.empty()) << fam.representative << ": " << diff;
        ++alternations;
      }
      if (!any) break;
    }
  }
  EXPECT_GT(alternations, 100);
}

TEST(FamilyCandidateEvaluator, ThreadedSearchesMatchOneThread) {
  // Families searched concurrently, each on its thread's evaluator, give
  // the bytes of a one-thread search (TSan covers the per-thread cursors).
  for (const char* model : {"t5", "moe"}) {
    service::ModelSpec spec;
    spec.model = model;
    spec.layers = 4;
    const Graph g = service::build_spec_model(spec);
    const ir::TapGraph tg = ir::lower(g);
    std::string bytes[2];
    for (int i = 0; i < 2; ++i) {
      const core::TapOptions opts =
          service::options_for_spec(spec, i == 0 ? 1 : 4);
      bytes[i] = service::plan_response_json(
          tg, service::make_plan_key(tg, opts, /*sweep=*/true),
          core::auto_parallel_best_mesh(tg, opts));
    }
    EXPECT_EQ(bytes[0], bytes[1]) << model;
  }
}

// ---------------------------------------------------------------------------
// Recorded bytes
// ---------------------------------------------------------------------------

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Expects the plan_response_json digest of a mesh-sweep search of
/// `model` with `max_plans` as TapOptions::max_plans_per_family.
void expect_plan_digest(const char* model, int layers, std::int64_t max_plans,
                        const char* digest) {
  const service::ModelSpec spec = model_spec(model, layers);
  const Graph g = service::build_spec_model(spec);
  const ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = service::options_for_spec(spec, 1);
  opts.max_plans_per_family = max_plans;
  const core::TapResult r = core::auto_parallel_best_mesh(tg, opts);
  const std::string bytes = service::plan_response_json(
      tg, service::make_plan_key(tg, opts, /*sweep=*/true), r);
  EXPECT_EQ(hex64(util::hash_str(bytes)), digest)
      << model << " layers=" << layers << " max_plans_per_family=" << max_plans;
}

TEST(FamilyCandidateEvaluator, GreedyPlanResponseBytesMatchRecordedDigests) {
  // plan_response_json digests with max_plans_per_family small enough
  // that every multi-candidate family searches greedily (GreedyPolicy),
  // recorded at response version 2: the plans and costs are those
  // recorded before candidate evaluation became incremental, and only the
  // candidate statistics moved (each mesh enumerates its own catalog).
  expect_plan_digest("t5", 6, 8, "40251572e8220b7a");
  expect_plan_digest("moe", 4, 8, "99673b8bdf83147b");
  // Greedy for the 729-candidate encoder block, exhaustive below.
  expect_plan_digest("t5", 6, 100, "5ba672a794418cc5");
}

}  // namespace
}  // namespace tap
