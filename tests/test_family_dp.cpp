// FrontierDpPolicy decides each family by a DP over router frontier
// states. It must decide exactly what scoring every candidate decides
// (ExhaustivePolicy, the oracle): the same winner, the same plan and cost
// bits and the same four SearchStats counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/family_search.h"
#include "core/planner_pipeline.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "pruning/prune.h"
#include "service/fingerprint.h"
#include "service/planner_service.h"
#include "service/wire.h"
#include "sharding/enumerate.h"
#include "sharding/routing.h"
#include "util/check.h"
#include "util/rng.h"

namespace tap::core {
namespace {

/// The oracle: ExhaustivePolicy on families of at most kOracleMaxPlans
/// candidates. Every family of the models below fits; a larger one
/// fails the test instead of filling an oversized score buffer.
constexpr std::int64_t kOracleMaxPlans = 2000000;

class OraclePolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "oracle"; }
  FamilySearchOutcome search(
      const FamilySearchContext& ctx, const pruning::SubgraphFamily& family,
      const sharding::ShardingPlan& base) const override {
    TAP_CHECK_LE(
        sharding::FamilyPlanEnumerator(ctx.table(), family).total_plans(),
        kOracleMaxPlans)
        << family.representative;
    return ExhaustivePolicy().search(ctx, family, base);
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool weighted(const ir::TapGraph& tg, const pruning::SubgraphFamily& f) {
  for (ir::GraphNodeId id : f.member_nodes)
    if (tg.node(id).has_weight()) return true;
  return false;
}

/// The pipeline at one mesh with `policy`: the plan FamilySearch chose,
/// then the whole run.
struct MeshRun {
  sharding::ShardingPlan searched;
  PlanContext ctx;
};

MeshRun run_mesh(const ir::TapGraph& tg, const pruning::PruneResult& pr,
                 const cost::ClusterSpec& cluster, int tp,
                 std::shared_ptr<const FamilySearchPolicy> policy) {
  MeshRun run;
  PlanContext& ctx = run.ctx;
  ctx.tg = &tg;
  ctx.opts.cluster = cluster;
  ctx.opts.num_shards = tp;
  ctx.opts.dp_replicas = cluster.world() / tp;
  ctx.opts.threads = 1;
  ctx.shared_pruning = &pr;
  const PlannerPipeline pipeline = PlannerPipeline::standard(std::move(policy));
  pipeline.run_prefix(ctx, 3);
  run.searched = ctx.plan;
  for (std::size_t i = 3; i < pipeline.size(); ++i) pipeline.pass(i).run(ctx);
  return run;
}

void expect_same_run(const MeshRun& got, const MeshRun& want) {
  EXPECT_EQ(got.searched.choice, want.searched.choice);
  EXPECT_EQ(got.ctx.plan.choice, want.ctx.plan.choice);
  EXPECT_EQ(got.ctx.routed.valid, want.ctx.routed.valid);
  const cost::PlanCost& a = got.ctx.cost;
  const cost::PlanCost& b = want.ctx.cost;
  EXPECT_TRUE(same_bits(a.forward_comm_s, b.forward_comm_s));
  EXPECT_TRUE(same_bits(a.backward_comm_s, b.backward_comm_s));
  EXPECT_TRUE(same_bits(a.overlappable_comm_s, b.overlappable_comm_s));
  EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  EXPECT_EQ(got.ctx.stats.candidate_plans, want.ctx.stats.candidate_plans);
  EXPECT_EQ(got.ctx.stats.valid_plans, want.ctx.stats.valid_plans);
  EXPECT_EQ(got.ctx.stats.nodes_visited, want.ctx.stats.nodes_visited);
  EXPECT_EQ(got.ctx.stats.cost_queries, want.ctx.stats.cost_queries);
}

/// The plan_cold zoo and table1_zoo(), built.
std::vector<std::pair<std::string, Graph>> oracle_models() {
  std::vector<std::pair<std::string, Graph>> graphs;
  const std::pair<const char*, int> plan_cold[] = {
      {"t5", 8},   {"t5", 24}, {"t5", 48},       {"bert", 24},
      {"gpt3", 8}, {"moe", 8}, {"resnet50", 50}};
  for (const auto& [model, layers] : plan_cold) {
    service::ModelSpec spec;
    spec.model = model;
    spec.layers = layers;
    graphs.emplace_back(spec.model + "-" + std::to_string(layers),
                        service::build_spec_model(spec));
  }
  for (const models::ZooEntry& entry : models::table1_zoo())
    graphs.emplace_back(entry.model, entry.build());
  return graphs;
}

TEST(FrontierDpPolicy, MatchesExhaustiveOracleOnEveryZooMesh) {
  // Every plan_cold and table1_zoo() model at every mesh of 8, 16 and 32
  // GPUs: the plan FamilySearch picks, the refined plan, its PlanCost
  // bits and the four counters equal the oracle's. T5's 3^10 decoder
  // block at 16 GPUs is among them. The DP searches every model afresh;
  // the oracle's outcomes are shared through a family cache, so a family
  // that several models have at one mesh (the T5 blocks of T5-8/24/48L
  // and T5-Large) is walked once there.
  const auto dp = std::make_shared<FrontierDpPolicy>();
  const auto oracle = std::make_shared<service::CachingFamilyPolicy>(
      std::make_shared<OraclePolicy>());
  int meshes = 0;
  std::int64_t largest = 0;
  for (const auto& [name, g] : oracle_models()) {
    SCOPED_TRACE(name);
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    for (int nodes : {1, 2, 4}) {
      const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(nodes);
      for (int tp = 1; tp <= cluster.world(); ++tp) {
        if (cluster.world() % tp != 0) continue;
        SCOPED_TRACE("world=" + std::to_string(cluster.world()) +
                     " tp=" + std::to_string(tp));
        const MeshRun want = run_mesh(tg, pr, cluster, tp, oracle);
        const MeshRun got = run_mesh(tg, pr, cluster, tp, dp);
        expect_same_run(got, want);
        ++meshes;
        const sharding::PatternTable& table = *got.ctx.table;
        for (const pruning::SubgraphFamily& fam : pr.families) {
          largest = std::max(
              largest,
              sharding::FamilyPlanEnumerator(table, fam).total_plans());
        }
      }
    }
  }
  EXPECT_GT(meshes, 100);
  EXPECT_GE(largest, 59049);
}

TEST(FrontierDpPolicy, FamilyOutcomesMatchOracle) {
  // Family by family, for T5 and CLIP-Base (whose candidates mostly fail
  // at tp <= 4) at 16 GPUs: the same winner and counters as the oracle,
  // with far fewer nodes routed than the oracle walks.
  const Graph graphs[] = {models::table1_zoo()[7].build(),   // T5-Large
                          models::table1_zoo()[1].build()};  // CLIP-Base
  std::int64_t dp_routed = 0, oracle_routed = 0;
  for (const Graph& g : graphs) {
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
    for (int tp = 1; tp <= cluster.world(); tp *= 2) {
      TapOptions opts;
      opts.cluster = cluster;
      opts.num_shards = tp;
      opts.dp_replicas = cluster.world() / tp;
      const sharding::PatternTable table(tg, tp, opts.dp_replicas);
      const FamilySearchContext ctx(tg, opts, table);
      const sharding::ShardingPlan base =
          sharding::default_plan(tg, tp, opts.dp_replicas);
      for (const pruning::SubgraphFamily& fam : pr.families) {
        if (!weighted(tg, fam)) continue;
        SCOPED_TRACE(fam.representative + " tp=" + std::to_string(tp));
        const FamilySearchOutcome want = OraclePolicy().search(ctx, fam, base);
        const FamilySearchOutcome got =
            FrontierDpPolicy().search(ctx, fam, base);
        EXPECT_EQ(got.found, want.found);
        EXPECT_EQ(got.choice, want.choice);
        EXPECT_EQ(got.stats.candidate_plans, want.stats.candidate_plans);
        EXPECT_EQ(got.stats.valid_plans, want.stats.valid_plans);
        EXPECT_EQ(got.stats.nodes_visited, want.stats.nodes_visited);
        EXPECT_EQ(got.stats.cost_queries, want.stats.cost_queries);
        EXPECT_GT(got.work.dp_steps, 0);
        EXPECT_LE(got.work.dp_steps, got.work.nodes_routed);
        dp_routed += got.work.nodes_routed;
        oracle_routed += want.work.nodes_routed;
      }
    }
  }
  EXPECT_LT(dp_routed * 4, oracle_routed);
}

TEST(FrontierDpPolicy, ThreadedSearchesMatchOneThread) {
  // Families searched concurrently, each on its thread's DP buffers and
  // CostArena, give the bytes of a one-thread search (TSan covers the
  // per-thread buffers).
  for (const char* model : {"t5", "moe"}) {
    service::ModelSpec spec;
    spec.model = model;
    spec.layers = 4;
    const Graph g = service::build_spec_model(spec);
    const ir::TapGraph tg = ir::lower(g);
    std::string bytes[2];
    for (int i = 0; i < 2; ++i) {
      const TapOptions opts = service::options_for_spec(spec, i == 0 ? 1 : 4);
      bytes[i] = service::plan_response_json(
          tg, service::make_plan_key(tg, opts, /*sweep=*/true),
          auto_parallel_best_mesh(tg, opts));
    }
    EXPECT_EQ(bytes[0], bytes[1]) << model;
  }
}

TEST(FrontierDpPolicy, OneLaneRoutesEachStateOncePerSearch) {
  // The probe and every exit layout's steady state share one lane, so a
  // state reached by both is routed once. The DP steps of one 2x8 sweep
  // of each plan_cold model stay at or below the shared lane's count,
  // and below the count of one lane per exit layout.
  obs::Counter* steps = obs::registry().counter("planner.family.dp_steps");
  auto expect_steps = [&](const char* model, int layers, std::uint64_t shared,
                          std::uint64_t per_exit) {
    service::ModelSpec spec;
    spec.model = model;
    spec.layers = layers;
    const Graph g = service::build_spec_model(spec);
    const ir::TapGraph tg = ir::lower(g);
    const std::uint64_t before = steps->value();
    auto_parallel_best_mesh(tg, service::options_for_spec(spec, 1));
    const std::uint64_t taken = steps->value() - before;
    EXPECT_LE(taken, shared) << model << "-" << layers;
    EXPECT_LT(taken, per_exit) << model << "-" << layers;
  };
  for (int layers : {8, 24, 48}) expect_steps("t5", layers, 4662, 6603);
  expect_steps("bert", 24, 1349, 1813);
  expect_steps("gpt3", 8, 368, 456);
  expect_steps("moe", 8, 1612, 2150);
  expect_steps("resnet50", 50, 2391, 4427);
}

TEST(FrontierDpPolicy, PlateauResolvesToRankZeroInsideTheDp) {
  // At tp = 1 every candidate of T5's decoder block ties exactly in comm
  // and weight bytes (8192 of them at 16 GPUs). The plateau rule picks
  // rank 0 from one exact score: the winner step routes no more nodes
  // than the DP did.
  const Graph g = models::table1_zoo()[7].build();  // T5-Large
  const ir::TapGraph tg = ir::lower(g);
  const pruning::PruneResult pr = pruning::prune_graph(tg);
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 1;
  opts.dp_replicas = 16;
  const sharding::PatternTable table(tg, 1, 16);
  const FamilySearchContext ctx(tg, opts, table);
  const sharding::ShardingPlan base = sharding::default_plan(tg, 1, 16);
  std::int64_t largest = 0;
  for (const pruning::SubgraphFamily& fam : pr.families) {
    if (!weighted(tg, fam)) continue;
    SCOPED_TRACE(fam.representative);
    const FamilySearchOutcome got = FrontierDpPolicy().search(ctx, fam, base);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.choice, std::vector<int>(fam.member_nodes.size(), 0));
    EXPECT_EQ(got.work.band_candidates, 1);
    EXPECT_LE(got.work.nodes_routed - got.work.dp_steps, got.work.dp_steps);
    largest = std::max(largest, got.stats.candidate_plans);
  }
  EXPECT_GE(largest, 8192);
}

TEST(FrontierDpPolicy, BandEdgeKeepsTheScanWinner) {
  // Synthetic score sets built around 1e-9 tolerance chains: a run of
  // scores each within better_than's tolerance of the next, with weight
  // bytes falling along it, near the minimum and near the band's cover.
  // Whenever band_edge certifies an edge, the first-best scan over the
  // candidates at or below it keeps the scan's winner over all of them.
  // A band cut inside a chain (no gap above the edge) can change it:
  // that is why the edge needs the gap.
  util::Rng rng(21);
  int certified = 0, cut_changes = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t n = 2 + rng.next_below(40);
    std::vector<FamilyScore> scores(n);
    const double m = 1.0 + static_cast<double>(rng.next_below(1000));
    for (FamilyScore& s : scores) {
      // Scores step up from m by fractions of the tolerance, so chains
      // and gaps of every width occur.
      const double steps = static_cast<double>(rng.next_below(12));
      s.comm = m * (1.0 + steps * 0.7e-9);
      s.weight_bytes = static_cast<std::int64_t>(rng.next_below(4));
    }
    const std::vector<char> all(n, 1);
    const std::int64_t want = first_best_rank(scores, all);

    std::vector<double> comms;
    for (const FamilyScore& s : scores) comms.push_back(s.comm);
    std::sort(comms.begin(), comms.end());
    // The caller lists every score up to `cover`: here, all of them.
    const double cover = comms.back() * (1.0 + 16e-9);
    const double edge = band_edge(comms, cover);
    ASSERT_GE(edge, comms.front());
    std::vector<char> in_band(n);
    for (std::size_t r = 0; r < n; ++r) in_band[r] = scores[r].comm <= edge;
    EXPECT_EQ(first_best_rank(scores, in_band), want) << "round " << round;
    ++certified;

    // Cutting at the minimum's own tolerance band, without a gap.
    for (std::size_t r = 0; r < n; ++r)
      in_band[r] = scores[r].comm <= comms.front() * (1.0 + 1e-9);
    if (first_best_rank(scores, in_band) != want) ++cut_changes;
  }
  EXPECT_EQ(certified, 2000);
  EXPECT_GT(cut_changes, 0);

  // No edge below the cover's gap: the caller must score further.
  const std::vector<double> chain = {1.0, 1.0 + 3e-9, 1.0 + 6e-9};
  EXPECT_EQ(band_edge(chain, 1.0 + 8e-9), -1.0);
  EXPECT_EQ(band_edge(chain, 1.0 + 11e-9), 1.0 + 6e-9);
  EXPECT_EQ(band_edge(std::vector<double>{0.0, 0.0, 1.0}, 1e-12), 0.0);
}

/// The live producers before visit position `p` (FrontierState docs), in
/// the scope's read order.
std::vector<ir::GraphNodeId> live_before(const ir::TapGraph& tg,
                                         const sharding::SubgraphScope& scope,
                                         std::size_t p) {
  std::vector<ir::GraphNodeId> live;
  for (ir::GraphNodeId q : scope.reads) {
    std::ptrdiff_t own = -1, last = -1;
    for (std::size_t i = 0; i < scope.order.size(); ++i) {
      const auto at = static_cast<std::ptrdiff_t>(i);
      if (scope.order[i] == q) own = at;
      for (ir::GraphNodeId in : tg.node(scope.order[i]).inputs)
        if (in == q) last = at;
    }
    const auto here = static_cast<std::ptrdiff_t>(p);
    if (own < here && last >= here) live.push_back(q);
  }
  return live;
}

TEST(FrontierState, EqualStatesHashEquallyAndRestoreRoundTrips) {
  // Route random candidates of every weighted T5 family member by member
  // through one FrontierRouter, at a replicated and a split boundary. Equal
  // states hash equally; every state restored into fresh buffers
  // snapshots back to itself; and the steps' events, concatenated, are
  // the events route_subgraph_into emits for the same candidate.
  service::ModelSpec spec;
  spec.model = "t5";
  spec.layers = 2;
  const Graph g = service::build_spec_model(spec);
  const ir::TapGraph tg = ir::lower(g);
  const pruning::PruneResult pr = pruning::prune_graph(tg);
  const sharding::PatternTable table(tg, 8, 2);
  util::Rng rng(7);
  int merges = 0, checked = 0;
  for (const pruning::SubgraphFamily& fam : pr.families) {
    if (!weighted(tg, fam)) continue;
    const sharding::SubgraphScope scope(tg, fam.member_nodes);
    const std::size_t n = scope.order.size();
    sharding::FrontierRouter router;
    router.bind(tg, scope, table);
    for (const sharding::ShardSpec& boundary :
         {sharding::ShardSpec::replicate(), sharding::ShardSpec::split(0)}) {
      std::vector<std::vector<sharding::FrontierState>> seen(n + 1);
      for (int trial = 0; trial < 60; ++trial) {
        sharding::ShardingPlan plan = sharding::default_plan(tg, 8, 2);
        for (ir::GraphNodeId id : fam.member_nodes) {
          plan.choice[static_cast<std::size_t>(id)] = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(table.at(id).size())));
        }
        sharding::RoutedPlan fresh;
        sharding::RoutingScratch fresh_scratch;
        sharding::route_subgraph_into(tg, plan, scope, boundary, table,
                                      &fresh_scratch, &fresh);
        sharding::FrontierState state, next;
        router.initial(boundary, &state);
        std::vector<sharding::CommEvent> events;
        bool valid = true;
        for (std::size_t p = 0; p < n && valid; ++p) {
          const int choice =
              plan.choice[static_cast<std::size_t>(scope.order[p])];
          router.restore(state, p);
          // A step from the restored state undoes the step before it.
          if (choice > 0) router.step(0, &next);
          valid = router.step(choice, &next);
          if (!valid) break;
          events.insert(events.end(), router.events().begin(),
                        router.events().end());
          state = next;
          for (const sharding::FrontierState& s : seen[p + 1]) {
            if (s == state) {
              EXPECT_EQ(s.hash(), state.hash());
              ++merges;
            }
          }
          seen[p + 1].push_back(state);

          // Restore into fresh buffers, then snapshot the same producers.
          sharding::RoutedPlan buffers;
          buffers.output_spec.assign(tg.num_nodes(),
                                     sharding::ShardSpec::split(3));
          sharding::RoutingScratch scratch;
          state.restore(&buffers, &scratch);
          sharding::FrontierState again;
          again.snapshot(live_before(tg, scope, p + 1), buffers, scratch);
          EXPECT_TRUE(again == state);
          EXPECT_EQ(again.hash(), state.hash());
          ++checked;
        }
        EXPECT_EQ(valid, fresh.valid);
        if (!valid) continue;
        ASSERT_EQ(events.size(), fresh.comms.size());
        for (std::size_t i = 0; i < events.size(); ++i) {
          EXPECT_EQ(events[i].kind, fresh.comms[i].kind);
          EXPECT_EQ(events[i].bytes, fresh.comms[i].bytes);
          EXPECT_EQ(events[i].node, fresh.comms[i].node);
          EXPECT_EQ(events[i].phase, fresh.comms[i].phase);
          EXPECT_EQ(events[i].group, fresh.comms[i].group);
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(merges, 0);
}

}  // namespace
}  // namespace tap::core
