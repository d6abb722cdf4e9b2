// ExhaustivePolicy walks a family's candidates in route order (the member
// visited last changing fastest), skips the completions of a prefix whose
// probe route failed, and picks its winner by replaying the scores in
// Algorithm 2's order. It must decide exactly what the mixed-radix loop it
// replaced decided: the reference below is that loop, kept as it was.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/family_search.h"
#include "core/tap.h"
#include "cost/candidate_eval.h"
#include "cost/comm_batch.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "pruning/prune.h"
#include "service/planner_service.h"
#include "sharding/enumerate.h"
#include "sharding/plan.h"
#include "util/check.h"
#include "util/rng.h"

namespace tap::core {
namespace {

bool weighted(const ir::TapGraph& tg, const pruning::SubgraphFamily& f) {
  for (ir::GraphNodeId id : f.member_nodes)
    if (tg.node(id).has_weight()) return true;
  return false;
}

/// The exhaustive loop before route order: every candidate in Algorithm
/// 2's order through the evaluator, the first best kept as it comes.
/// `*nodes_routed` receives the nodes the evaluator routed.
FamilySearchOutcome reference_search(const FamilySearchContext& ctx,
                                     const pruning::SubgraphFamily& family,
                                     const sharding::ShardingPlan& base,
                                     std::int64_t* nodes_routed) {
  FamilySearchOutcome out;
  const FamilyScope scope(ctx, family);
  cost::FamilyCandidateEvaluator& eval = cost::tls_cost_arena().candidates;
  ctx.bind(scope, &eval);
  sharding::FamilyPlanEnumerator enumerator(ctx.table(), family);
  sharding::ShardingPlan scratch = base;
  FamilyScore best;
  std::vector<int> choice;
  while (enumerator.next(&choice)) {
    ++out.stats.candidate_plans;
    for (std::size_t j = 0; j < choice.size(); ++j)
      scratch.choice[static_cast<std::size_t>(family.member_nodes[j])] =
          choice[j];
    FamilyScore s;
    if (!ctx.evaluate(scratch, scope, &eval, &s, &out.stats)) continue;
    ++out.stats.valid_plans;
    if (!out.found || s.better_than(best)) {
      out.found = true;
      best = s;
      out.choice = choice;
    }
  }
  *nodes_routed = static_cast<std::int64_t>(eval.nodes_routed());
  return out;
}

void expect_same_outcome(const FamilySearchOutcome& got,
                         const FamilySearchOutcome& want) {
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.choice, want.choice);
  EXPECT_EQ(got.stats.candidate_plans, want.stats.candidate_plans);
  EXPECT_EQ(got.stats.valid_plans, want.stats.valid_plans);
  EXPECT_EQ(got.stats.nodes_visited, want.stats.nodes_visited);
  EXPECT_EQ(got.stats.cost_queries, want.stats.cost_queries);
}

/// Route-order and reference totals over some family searches.
struct Totals {
  std::int64_t families = 0;
  std::int64_t routed = 0;            ///< route order's nodes_routed
  std::int64_t reference_routed = 0;  ///< the reference's
  std::int64_t skipped = 0;
};

/// Compares ExhaustivePolicy with the reference on every weighted family
/// of `tg` with at most `max_candidates` candidates, at tp x dp.
void compare_mesh(const ir::TapGraph& tg, const pruning::PruneResult& pr,
                  const cost::ClusterSpec& cluster, int tp,
                  std::int64_t max_candidates, Totals* totals) {
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
    if (sharding::FamilyPlanEnumerator(table, fam).total_plans() >
        max_candidates)
      continue;
    SCOPED_TRACE(fam.representative);
    std::int64_t reference_routed = 0;
    const FamilySearchOutcome want =
        reference_search(ctx, fam, base, &reference_routed);
    const FamilySearchOutcome got = ExhaustivePolicy().search(ctx, fam, base);
    expect_same_outcome(got, want);
    ++totals->families;
    totals->routed += got.work.nodes_routed;
    totals->reference_routed += reference_routed;
    totals->skipped += got.work.skipped_candidates;
  }
}

TEST(ExhaustivePolicy, RouteOrderMatchesMixedRadixReference) {
  // Every table1_zoo() model, every mesh of 8, 16 and 32 GPUs, every
  // weighted family up to 60 000 candidates (T5's 3^10 decoder block
  // included): the same winner and counters as the reference, and at
  // most 0.8x its routed nodes on every model with such a family.
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    Totals totals;
    for (int nodes : {1, 2, 4}) {
      const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(nodes);
      for (int tp = 1; tp <= cluster.world(); ++tp) {
        if (cluster.world() % tp != 0) continue;
        SCOPED_TRACE("world=" + std::to_string(cluster.world()) +
                     " tp=" + std::to_string(tp));
        compare_mesh(tg, pr, cluster, tp, 60000, &totals);
      }
    }
    if (totals.families == 0) continue;
    EXPECT_LE(static_cast<double>(totals.routed),
              0.8 * static_cast<double>(totals.reference_routed))
        << totals.routed << " vs " << totals.reference_routed;
  }
}

TEST(ExhaustivePolicy, MostlyFailingCandidatesAreSkippedExactly) {
  // CLIP-Base at tp <= 4: most candidates fail their probe route, and the
  // walk passes over their completions without routing them.
  const Graph g = models::table1_zoo()[1].build();  // CLIP-Base
  const ir::TapGraph tg = ir::lower(g);
  const pruning::PruneResult pr = pruning::prune_graph(tg);
  const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  Totals totals;
  for (int tp : {1, 2, 4}) {
    SCOPED_TRACE("tp=" + std::to_string(tp));
    compare_mesh(tg, pr, cluster, tp, 60000, &totals);
  }
  EXPECT_GT(totals.families, 0);
  EXPECT_GT(totals.skipped, 0);
  EXPECT_LT(totals.routed, totals.reference_routed);
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
  const service::CachingFamilyPolicy caching(
      std::make_shared<service::FamilyResultCache>(), nullptr);
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

/// A candidate of a RouteOrderWalk: its rank and member choices.
struct WalkStep {
  std::int64_t rank;
  std::vector<int> choice;
};

/// Every candidate of `walk` from its current one on, without skipping.
std::vector<WalkStep> full_walk(RouteOrderWalk walk, std::size_t members) {
  std::vector<WalkStep> steps;
  std::vector<int> choice(members, 0);
  do {
    steps.push_back({walk.rank(), choice});
  } while (walk.next([&](std::size_t j, int value) { choice[j] = value; }));
  return steps;
}

TEST(ExhaustivePolicy, WalkVisitsEveryRankOnce) {
  // Random radices (counts of 1 included, and families with no member to
  // vary) over random visit positions.
  util::Rng rng(17);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t members = rng.next_below(6);
    std::vector<int> counts(members);
    std::vector<std::size_t> positions(members);
    for (std::size_t j = 0; j < members; ++j) {
      counts[j] = 1 + static_cast<int>(rng.next_below(4));
      positions[j] = j;
    }
    for (std::size_t j = members; j > 1; --j)
      std::swap(positions[j - 1], positions[rng.next_below(j)]);
    RouteOrderWalk walk;
    walk.reset(counts, positions);
    std::int64_t total = 1;
    for (int c : counts) total *= c;
    ASSERT_EQ(walk.total(), total);

    // Without skips: every rank once, each rank the Algorithm 2 index of
    // its choices, in route order (lexicographic with the member visited
    // first as the most significant digit).
    const std::vector<WalkStep> steps = full_walk(walk, members);
    ASSERT_EQ(static_cast<std::int64_t>(steps.size()), total);
    std::vector<int> seen(steps.size(), 0);
    auto by_position = [&](const std::vector<int>& choice) {
      std::vector<int> key(members);
      for (std::size_t j = 0; j < members; ++j) key[positions[j]] = choice[j];
      return key;
    };
    for (std::size_t i = 0; i < steps.size(); ++i) {
      std::int64_t rank = 0, stride = 1;
      for (std::size_t j = 0; j < members; ++j) {
        rank += steps[i].choice[j] * stride;
        stride *= counts[j];
      }
      ASSERT_EQ(steps[i].rank, rank);
      ++seen[static_cast<std::size_t>(rank)];
      if (i > 0) {
        ASSERT_LT(by_position(steps[i - 1].choice),
                  by_position(steps[i].choice));
      }
    }
    for (int n : seen) ASSERT_EQ(n, 1);

    // With random skips: each skip passes over exactly the following
    // candidates that keep the choices at positions up to the one given,
    // and the walk resumes at the first that does not.
    std::size_t at = 0;
    do {
      ASSERT_LT(at, steps.size());
      ASSERT_EQ(walk.rank(), steps[at].rank);
      if (members > 0 && rng.next_below(3) == 0) {
        const std::size_t p = rng.next_below(members);
        auto prefix = [&](const std::vector<int>& choice) {
          std::vector<int> key = by_position(choice);
          key.resize(p + 1);
          return key;
        };
        std::size_t same = 0;
        while (at + same + 1 < steps.size() &&
               prefix(steps[at + same + 1].choice) == prefix(steps[at].choice))
          ++same;
        ASSERT_EQ(walk.skip_after(p), static_cast<std::int64_t>(same));
        at += same;
      }
      ++at;
    } while (walk.next([](std::size_t, int) {}));
    EXPECT_EQ(at, steps.size());
  }

  // A space whose size does not fit the 64-bit rank is refused.
  RouteOrderWalk walk;
  const std::vector<int> counts(64, 3);
  std::vector<std::size_t> positions(counts.size());
  for (std::size_t j = 0; j < positions.size(); ++j) positions[j] = j;
  EXPECT_THROW(walk.reset(counts, positions), CheckError);
}

}  // namespace
}  // namespace tap::core
