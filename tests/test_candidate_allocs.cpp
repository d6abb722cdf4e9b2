// Allocations of incremental candidate evaluation: once an evaluator has
// seen a family's candidates, evaluating them again allocates nothing.
// This file replaces the global operator new with a counting one, gated
// per thread, so it builds into its own test binary (tap_alloc_tests)
// and the rest of the suite keeps the sanitizers' allocator checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/family_search.h"
#include "cost/candidate_eval.h"
#include "ir/lowering.h"
#include "pruning/prune.h"
#include "service/wire.h"
#include "sharding/enumerate.h"

namespace {

thread_local bool t_counting = false;
thread_local std::int64_t t_allocations = 0;

}  // namespace

// Out of line: inlined into a caller, GCC pairs the caller's `new` with
// this `free` and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tap {
namespace {

/// Allocations on this thread while `fn` runs.
template <typename Fn>
std::int64_t count_allocations(Fn&& fn) {
  const std::int64_t before = t_allocations;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations - before;
}

TEST(FamilyCandidateEvaluator, CandidatesAllocateNothingAfterWarmUp) {
  // T5 and MoE blocks, GPT-3's mostly failing candidates at tp <= 4, and
  // ResNet's conv blocks, at every mesh of 16 GPUs: a first pass over
  // the candidates grows the evaluator's buffers; a second, counted pass
  // must not allocate.
  std::vector<char> probe;
  ASSERT_EQ(count_allocations([&] { probe.resize(64); }), 1)
      << "the counting operator new is not in use";
  std::vector<service::ModelSpec> specs(4);
  specs[0].model = "t5";
  specs[1].model = "gpt3";
  specs[2].model = "moe";
  specs[3].model = "resnet50";
  specs[3].layers = 50;
  std::int64_t candidates = 0;
  for (const service::ModelSpec& spec : specs) {
    const std::string& model = spec.model;
    const Graph g = service::build_spec_model(spec);
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    core::TapOptions opts = service::options_for_spec(spec, 1);
    const int world = opts.cluster.world();
    for (int tp = 1; tp <= world; ++tp) {
      if (world % tp != 0) continue;
      opts.num_shards = tp;
      opts.dp_replicas = world / tp;
      const sharding::PatternTable table(tg, tp, world / tp);
      const core::FamilySearchContext ctx(tg, opts, table);
      for (const pruning::SubgraphFamily& fam : pr.families) {
        const core::FamilyScope scope(ctx, fam);
        sharding::FamilyPlanEnumerator e(table, fam);
        std::vector<sharding::ShardingPlan> plans;
        sharding::ShardingPlan plan =
            sharding::default_plan(tg, tp, world / tp);
        std::vector<int> choice;
        for (std::int64_t n = 0;
             n < opts.max_plans_per_family && e.next(&choice); ++n) {
          sharding::apply_family_choice(fam, choice, &plan);
          plans.push_back(plan);
        }
        cost::FamilyCandidateEvaluator eval;
        core::FamilyScore score;
        core::SearchStats stats;
        for (int pass = 0; pass < 2; ++pass) {
          ctx.bind(scope, &eval);
          for (const sharding::ShardingPlan& p : plans) {
            const std::int64_t n = count_allocations(
                [&] { ctx.evaluate(p, scope, &eval, &score, &stats); });
            if (pass == 1) {
              ASSERT_EQ(n, 0) << model << " tp=" << tp << " "
                              << fam.representative;
              ++candidates;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(candidates, 5000);
}

TEST(ExhaustivePolicy, WarmSearchAllocatesPerFamilyNotPerCandidate) {
  // The route-order walk keeps its digits and score buffer per thread:
  // once they have grown, an exhaustive search over a built enumerator
  // (as AutoPolicy passes it) allocates only its per-family set-up (the
  // FamilyScope, the scratch plan, the winner). So it allocates no more
  // than a greedy search of the same family, which has the same set-up
  // and scores far fewer candidates.
  service::ModelSpec spec;
  spec.model = "t5";
  const Graph g = service::build_spec_model(spec);
  const ir::TapGraph tg = ir::lower(g);
  const pruning::PruneResult pr = pruning::prune_graph(tg);
  core::TapOptions opts = service::options_for_spec(spec, 1);
  const int dp = opts.cluster.world() / 8;
  opts.num_shards = 8;
  opts.dp_replicas = dp;
  const sharding::PatternTable table(tg, 8, dp);
  const core::FamilySearchContext ctx(tg, opts, table);
  const sharding::ShardingPlan base = sharding::default_plan(tg, 8, dp);
  const core::ExhaustivePolicy exhaustive;
  const core::GreedyPolicy greedy;
  std::int64_t largest = 0;
  for (const pruning::SubgraphFamily& fam : pr.families) {
    sharding::FamilyPlanEnumerator e(table, fam);
    if (e.total_plans() > opts.max_plans_per_family) continue;
    exhaustive.search(ctx, fam, base, e);
    greedy.search(ctx, fam, base);
    core::FamilySearchOutcome out;
    const std::int64_t walked = count_allocations(
        [&] { out = exhaustive.search(ctx, fam, base, std::move(e)); });
    const std::int64_t greedy_allocations =
        count_allocations([&] { greedy.search(ctx, fam, base); });
    EXPECT_LE(walked, greedy_allocations)
        << fam.representative << ": " << out.stats.candidate_plans
        << " candidates";
    largest = std::max(largest, out.stats.candidate_plans);
  }
  EXPECT_GE(largest, 729);
}

}  // namespace
}  // namespace tap
