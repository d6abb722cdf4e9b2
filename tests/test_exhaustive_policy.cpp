// ExhaustivePolicy is Algorithm 2's loop, the oracle FrontierDpPolicy is
// tested against (tests/test_family_dp.cpp). These tests pin the work
// counters the FamilySearch pass reports and first_best_rank, the scan
// FrontierDpPolicy's band step replays Algorithm 2's winner with.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/family_search.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "pruning/prune.h"
#include "service/planner_service.h"
#include "sharding/plan.h"

namespace tap::core {
namespace {

bool weighted(const ir::TapGraph& tg, const pruning::SubgraphFamily& f) {
  for (ir::GraphNodeId id : f.member_nodes)
    if (tg.node(id).has_weight()) return true;
  return false;
}

TEST(ExhaustivePolicy, PassCountsTheWorkASearchDid) {
  // The FamilySearch pass adds each search's routed nodes, DP steps and
  // exactly scored candidates to the registry; a family-cache hit
  // replays an outcome without routing, so it reports none.
  const Graph g = models::table1_zoo()[1].build();  // CLIP-Base
  const ir::TapGraph tg = ir::lower(g);
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 2;
  opts.dp_replicas = 8;
  obs::Counter* routed = obs::registry().counter("planner.family.nodes_routed");
  obs::Counter* steps = obs::registry().counter("planner.family.dp_steps");
  obs::Counter* band =
      obs::registry().counter("planner.family.band_candidates");
  const std::uint64_t routed_before = routed->value();
  const std::uint64_t steps_before = steps->value();
  const std::uint64_t band_before = band->value();
  const TapResult r = auto_parallel(tg, opts);
  EXPECT_GT(routed->value(), routed_before);
  EXPECT_LT(routed->value() - routed_before,
            static_cast<std::uint64_t>(r.nodes_visited));
  EXPECT_GT(steps->value(), steps_before);
  EXPECT_LE(steps->value() - steps_before, routed->value() - routed_before);
  EXPECT_GT(band->value(), band_before);

  const pruning::PruneResult pr = pruning::prune_graph(tg);
  const sharding::PatternTable table(tg, 2, 8);
  const FamilySearchContext ctx(tg, opts, table);
  const sharding::ShardingPlan base = sharding::default_plan(tg, 2, 8);
  const service::CachingFamilyPolicy caching;
  for (const pruning::SubgraphFamily& fam : pr.families) {
    if (!weighted(tg, fam)) continue;
    const FamilySearchOutcome searched = caching.search(ctx, fam, base);
    const FamilySearchOutcome hit = caching.search(ctx, fam, base);
    EXPECT_GT(searched.work.nodes_routed, 0) << fam.representative;
    EXPECT_EQ(hit.work.nodes_routed, 0) << fam.representative;
    EXPECT_EQ(hit.work.dp_steps, 0) << fam.representative;
    EXPECT_EQ(hit.work.band_candidates, 0) << fam.representative;
    EXPECT_EQ(hit.choice, searched.choice) << fam.representative;
  }
}

TEST(ExhaustivePolicy, RankOrderReplayKeepsAlgorithm2Winner) {
  // A chain of scores, each within better_than's 1e-9 tolerance of its
  // neighbours, with less weight memory toward rank 0: scanned from rank
  // 0 the last rank wins (its cost beats rank 0's beyond the tolerance);
  // scanned from the last rank, rank 0 wins by weight bytes at every step.
  const std::vector<FamilyScore> scores = {
      {1.0, 0}, {1.0 - 0.6e-9, 1}, {1.0 - 1.2e-9, 2}};
  const std::vector<char> valid = {1, 1, 1};
  EXPECT_EQ(first_best_rank(scores, valid), 2);
  // A walk that reached the ranks last to first, scanning as it goes.
  const std::vector<FamilyScore> reversed(scores.rbegin(), scores.rend());
  EXPECT_EQ(2 - first_best_rank(reversed, valid), 0);

  // Invalid ranks never win, and no valid rank gives -1.
  EXPECT_EQ(first_best_rank(scores, std::vector<char>{1, 1, 0}), 0);
  EXPECT_EQ(first_best_rank(scores, std::vector<char>{0, 1, 0}), 1);
  EXPECT_EQ(first_best_rank(scores, std::vector<char>{0, 0, 0}), -1);
}

}  // namespace
}  // namespace tap::core
