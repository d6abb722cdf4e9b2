// Allocations of candidate evaluation: once the thread's CostArena has
// routed a family's candidates, evaluating them again allocates nothing,
// and warm family searches allocate per family, not per candidate.
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

/// Candidates per family the evaluate() test walks (the first ones in
/// Algorithm 2's order).
constexpr std::int64_t kMaxCandidates = 2000;

/// What a family search allocates once per family whatever its policy:
/// the FamilyScope, the per-member counts, the scratch plan and the
/// winner's choice.
std::int64_t family_setup_allocations(const core::FamilySearchContext& ctx,
                                      const pruning::SubgraphFamily& fam,
                                      const sharding::ShardingPlan& base) {
  return count_allocations([&] {
    const core::FamilyScope scope(ctx, fam);
    const sharding::FamilyPlanEnumerator e(ctx.table(), fam);
    const sharding::ShardingPlan scratch = base;
    const std::vector<int> choice(fam.member_nodes.size());
  });
}

TEST(FamilySearchContext, CandidatesAllocateNothingAfterWarmUp) {
  // T5 and MoE blocks, GPT-3's mostly failing candidates at tp <= 4, and
  // ResNet's conv blocks, at every mesh of 16 GPUs: a first pass of
  // FamilySearchContext::evaluate over the candidates grows the thread's
  // CostArena; a second, counted pass must not allocate.
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
        for (std::int64_t n = 0; n < kMaxCandidates && e.next(&choice); ++n) {
          sharding::apply_family_choice(fam, choice, &plan);
          plans.push_back(plan);
        }
        core::FamilyScore score;
        core::SearchStats stats;
        core::FamilySearchWork work;
        for (int pass = 0; pass < 2; ++pass) {
          for (const sharding::ShardingPlan& p : plans) {
            const std::int64_t n = count_allocations(
                [&] { ctx.evaluate(p, scope, &score, &stats, &work); });
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
  // Candidates route through the thread's CostArena: once it has grown,
  // an exhaustive search allocates only its per-family set-up (the
  // FamilyScope, the counts, the scratch plan, the winner), however many
  // candidates it scores.
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
  std::int64_t largest = 0;
  for (const pruning::SubgraphFamily& fam : pr.families) {
    exhaustive.search(ctx, fam, base);
    core::FamilySearchOutcome out;
    const std::int64_t walked =
        count_allocations([&] { out = exhaustive.search(ctx, fam, base); });
    EXPECT_LE(walked, family_setup_allocations(ctx, fam, base))
        << fam.representative << ": " << out.stats.candidate_plans
        << " candidates";
    largest = std::max(largest, out.stats.candidate_plans);
  }
  EXPECT_GE(largest, 59049);
}

TEST(FrontierDpPolicy, WarmSearchAllocatesPerFamilyNotPerStep) {
  // The DP keeps its lanes, states, transitions, nodes, edges, labels and
  // winner-step buffers per thread: once they have grown, a search
  // allocates only its per-family set-up, however many DP steps and
  // labels it takes. T5 and MoE at every mesh of 16 GPUs.
  const core::FrontierDpPolicy policy;
  std::int64_t most_steps = 0, largest = 0, families = 0;
  for (const char* model : {"t5", "moe"}) {
    service::ModelSpec spec;
    spec.model = model;
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
      const sharding::ShardingPlan base =
          sharding::default_plan(tg, tp, world / tp);
      for (const pruning::SubgraphFamily& fam : pr.families) {
        policy.search(ctx, fam, base);
        core::FamilySearchOutcome out;
        const std::int64_t n =
            count_allocations([&] { out = policy.search(ctx, fam, base); });
        EXPECT_LE(n, family_setup_allocations(ctx, fam, base))
            << model << " tp=" << tp << " " << fam.representative << ": "
            << out.work.dp_steps << " DP steps";
        most_steps = std::max(most_steps, out.work.dp_steps);
        largest = std::max(largest, out.stats.candidate_plans);
        ++families;
      }
    }
  }
  // The walk covers the zoo's largest family, T5's 3^10-candidate decoder
  // block, whose search takes 789 DP steps.
  EXPECT_GT(families, 10);
  EXPECT_GE(largest, 59049);
  EXPECT_GE(most_steps, 789);
}

}  // namespace
}  // namespace tap
