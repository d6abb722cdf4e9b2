#include "core/family_search.h"

#include <utility>

#include "sharding/enumerate.h"
#include "sharding/routing.h"

namespace tap::core {

using pruning::SubgraphFamily;
using sharding::FamilyPlanEnumerator;
using sharding::ShardingPlan;

namespace {

/// Writes a candidate's member choices into `plan`. Scoring reads only
/// the members, so the other instances wait for apply_family_choice when
/// the pass replays the winner: O(members) per candidate, not
/// O(members x instances).
void set_member_choices(const SubgraphFamily& family,
                        const std::vector<int>& choice, ShardingPlan* plan) {
  for (std::size_t j = 0; j < choice.size(); ++j)
    plan->choice[static_cast<std::size_t>(family.member_nodes[j])] = choice[j];
}

}  // namespace

FamilyScope::FamilyScope(const FamilySearchContext& ctx,
                         const SubgraphFamily& family)
    : family_(family),
      routing_(ctx.graph(), family.member_nodes),
      window_(ctx.graph(), &family.member_nodes, ctx.options().num_shards,
              ctx.options().dp_replicas, ctx.options().cluster) {
  const ir::TapGraph& tg = ctx.graph();
  const Graph& g = *tg.source();
  const int shards = ctx.options().num_shards;
  for (ir::GraphNodeId id : family.member_nodes) {
    const auto& n = tg.node(id);
    if (!n.has_weight()) continue;
    weighted_.push_back({id, bytes_.size()});
    for (const sharding::ShardingPattern& pat : ctx.table().at(id)) {
      std::int64_t total = 0;
      for (NodeId wid : n.weight_ops) {
        std::int64_t bytes = g.node(wid).weight->size_bytes();
        if (pat.weight.is_split() &&
            pat.weight.fits(g.node(wid).weight->shape, shards)) {
          bytes /= shards;
        }
        total += bytes;
      }
      bytes_.push_back(total);
    }
  }
}

std::int64_t FamilyScope::weight_bytes(const ShardingPlan& plan) const {
  std::int64_t total = 0;
  for (const WeightedMember& m : weighted_) {
    total += bytes_[m.first + static_cast<std::size_t>(
                                  plan.choice[static_cast<std::size_t>(m.id)])];
  }
  return total;
}

bool FamilySearchContext::stage(const ShardingPlan& plan,
                                const FamilyScope& scope,
                                cost::CostArena* arena,
                                std::int64_t* weight_bytes_out,
                                SearchStats* stats) const {
  const SubgraphFamily& family = scope.family();
  stats->nodes_visited +=
      static_cast<std::int64_t>(family.member_nodes.size());
  // Probe and steady-state route share the arena's routing scratch and
  // reset only the entries they read, so a candidate costs O(members)
  // and zero allocations once capacities settle.
  sharding::route_subgraph_into(tg_, plan, scope.routing(),
                                sharding::ShardSpec::replicate(), &table_,
                                &arena->routing, &arena->probe);
  if (!arena->probe.valid) return false;
  const auto exit_spec =
      sharding::subgraph_exit_spec(arena->probe, scope.routing());
  if (exit_spec == sharding::ShardSpec::replicate()) {
    // The steady-state route would repeat the probe (same plan, same
    // boundary): take its result instead of routing again.
    std::swap(arena->probe, arena->routed);
  } else {
    sharding::route_subgraph_into(tg_, plan, scope.routing(), exit_spec,
                                  &table_, &arena->routing, &arena->routed);
    if (!arena->routed.valid) return false;
  }
  ++stats->cost_queries;
  cost::CostOptions copts = opts_.cost;
  copts.overlap_window_s = scope.window().window(arena->routed, table_);
  arena->batch.add_candidate(arena->routed, plan.num_shards, copts);
  *weight_bytes_out = scope.weight_bytes(plan);
  return true;
}

bool FamilySearchContext::stage(const ShardingPlan& plan,
                                const SubgraphFamily& family,
                                cost::CostArena* arena,
                                std::int64_t* weight_bytes_out,
                                SearchStats* stats) const {
  return stage(plan, FamilyScope(*this, family), arena, weight_bytes_out,
               stats);
}

void FamilySearchContext::bind(const FamilyScope& scope,
                               cost::FamilyCandidateEvaluator* eval) const {
  eval->bind(tg_, table_, scope.routing(), scope.window(), opts_.cluster,
             opts_.cost);
}

bool FamilySearchContext::evaluate(const ShardingPlan& plan,
                                   const FamilyScope& scope,
                                   cost::FamilyCandidateEvaluator* eval,
                                   FamilyScore* out, SearchStats* stats) const {
  // Counted as stage() counts: every member is visited once per
  // candidate, however much of the route the evaluator reuses.
  stats->nodes_visited +=
      static_cast<std::int64_t>(scope.family().member_nodes.size());
  cost::PlanCost cost;
  if (!eval->evaluate(plan, &cost)) return false;
  ++stats->cost_queries;
  out->comm = cost.total();
  out->weight_bytes = scope.weight_bytes(plan);
  return true;
}

bool FamilySearchContext::evaluate_full_graph(const ShardingPlan& plan,
                                              double* cost,
                                              SearchStats* stats) const {
  stats->nodes_visited += static_cast<std::int64_t>(tg_.num_nodes());
  cost::CostArena& arena = cost::tls_cost_arena();
  sharding::route_plan_into(tg_, plan, &table_, &arena.routing,
                            &arena.routed);
  if (!arena.routed.valid) return false;
  ++stats->cost_queries;
  *cost = cost::comm_cost(arena.routed, plan.num_shards, opts_.cluster,
                          opts_.cost)
              .total();
  return true;
}

FamilySearchOutcome ExhaustivePolicy::search(
    const FamilySearchContext& ctx, const SubgraphFamily& family,
    const ShardingPlan& base) const {
  return search(ctx, family, base,
                FamilyPlanEnumerator(ctx.table(), ctx.graph(), family));
}

FamilySearchOutcome ExhaustivePolicy::search(
    const FamilySearchContext& ctx, const SubgraphFamily& family,
    const ShardingPlan& base, FamilyPlanEnumerator enumerator) const {
  FamilySearchOutcome out;
  const FamilyScope scope(ctx, family);
  cost::FamilyCandidateEvaluator& eval = cost::tls_cost_arena().candidates;
  ctx.bind(scope, &eval);
  ShardingPlan scratch = base;
  // Ties break toward the earliest candidate in enumeration order, as
  // better_than is strict.
  FamilyScore best;
  std::vector<int> choice;
  while (enumerator.next(&choice)) {
    ++out.stats.candidate_plans;
    set_member_choices(family, choice, &scratch);
    FamilyScore s;
    if (!ctx.evaluate(scratch, scope, &eval, &s, &out.stats)) continue;
    ++out.stats.valid_plans;
    if (!out.found || s.better_than(best)) {
      out.found = true;
      best = s;
      out.choice = choice;
    }
  }
  return out;
}

FamilySearchOutcome GreedyPolicy::search(const FamilySearchContext& ctx,
                                         const SubgraphFamily& family,
                                         const ShardingPlan& base) const {
  FamilySearchOutcome out;
  const FamilyScope scope(ctx, family);
  cost::FamilyCandidateEvaluator& eval = cost::tls_cost_arena().candidates;
  ctx.bind(scope, &eval);
  ShardingPlan scratch = base;
  std::vector<int> choice(family.member_nodes.size(), 0);
  for (std::size_t j = 0; j < family.member_nodes.size(); ++j) {
    int best_k = 0;
    FamilyScore best_local;
    bool have_local = false;
    const auto& pats = ctx.table().at(family.member_nodes[j]);
    for (std::size_t k = 0; k < pats.size(); ++k) {
      choice[j] = static_cast<int>(k);
      ++out.stats.candidate_plans;
      set_member_choices(family, choice, &scratch);
      FamilyScore s;
      if (!ctx.evaluate(scratch, scope, &eval, &s, &out.stats)) continue;
      ++out.stats.valid_plans;
      if (!have_local || s.better_than(best_local)) {
        have_local = true;
        best_local = s;
        best_k = static_cast<int>(k);
      }
    }
    choice[j] = best_k;
    out.found = out.found || have_local;
  }
  out.choice = choice;
  return out;
}

FamilySearchOutcome AutoPolicy::search(const FamilySearchContext& ctx,
                                       const SubgraphFamily& family,
                                       const ShardingPlan& base) const {
  FamilyPlanEnumerator enumerator(ctx.table(), ctx.graph(), family);
  if (enumerator.total_plans() <= ctx.options().max_plans_per_family) {
    return exhaustive_.search(ctx, family, base, std::move(enumerator));
  }
  return greedy_.search(ctx, family, base);
}

}  // namespace tap::core
