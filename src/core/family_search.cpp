#include "core/family_search.h"

#include <utility>

#include "sharding/enumerate.h"
#include "sharding/routing.h"

namespace tap::core {

using pruning::SubgraphFamily;
using sharding::FamilyPlanEnumerator;
using sharding::ShardingPlan;

namespace {

/// Arena backing score() / evaluate_full_graph(). Deliberately distinct
/// from cost::tls_cost_arena(): the policies keep a partially staged
/// batch in the shared arena across stage() calls, and a stray score()
/// call (baseline policies mix both) must not clobber it.
cost::CostArena& score_arena() {
  static thread_local cost::CostArena arena;
  return arena;
}

/// Writes a candidate's member choices into `plan`. Staging reads only
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

bool FamilySearchContext::score(const ShardingPlan& plan,
                                const SubgraphFamily& family,
                                FamilyScore* out, SearchStats* stats) const {
  cost::CostArena& arena = score_arena();
  arena.batch.reset();
  std::int64_t wb = 0;
  if (!stage(plan, family, &arena, &wb, stats)) return false;
  cost::comm_cost_batch(arena.batch, opts_.cluster, arena.results);
  out->comm = arena.results[0].total();
  out->weight_bytes = wb;
  return true;
}

bool FamilySearchContext::evaluate_full_graph(const ShardingPlan& plan,
                                              double* cost,
                                              SearchStats* stats) const {
  stats->nodes_visited += static_cast<std::int64_t>(tg_.num_nodes());
  cost::CostArena& arena = score_arena();
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
  ShardingPlan scratch = base;
  cost::CostArena& arena = cost::tls_cost_arena();
  arena.batch.reset();

  // Candidates are staged into the batch in enumeration order and the
  // winner is updated lane by lane at each flush, so the selected choice
  // (ties break toward the earliest candidate, as better_than is strict)
  // is identical to the old score-one-at-a-time loop. The lane slots
  // keep their choice buffers across batches: no per-candidate allocation.
  struct Staged {
    std::vector<int> choice;
    std::int64_t weight_bytes = 0;
  };
  Staged staged[cost::kCostBatchWidth];
  FamilyScore best;

  auto flush = [&] {
    if (arena.batch.empty()) return;
    cost::comm_cost_batch(arena.batch, ctx.options().cluster, arena.results);
    for (int l = 0; l < arena.batch.lanes(); ++l) {
      FamilyScore s;
      s.comm = arena.results[l].total();
      s.weight_bytes = staged[l].weight_bytes;
      if (!out.found || s.better_than(best)) {
        out.found = true;
        best = s;
        out.choice = staged[l].choice;
      }
    }
    arena.batch.reset();
  };

  std::vector<int> choice;
  while (enumerator.next(&choice)) {
    ++out.stats.candidate_plans;
    set_member_choices(family, choice, &scratch);
    std::int64_t wb = 0;
    if (!ctx.stage(scratch, scope, &arena, &wb, &out.stats)) continue;
    ++out.stats.valid_plans;
    Staged& slot = staged[arena.batch.lanes() - 1];
    slot.choice = choice;
    slot.weight_bytes = wb;
    if (arena.batch.full()) flush();
  }
  flush();
  return out;
}

FamilySearchOutcome GreedyPolicy::search(const FamilySearchContext& ctx,
                                         const SubgraphFamily& family,
                                         const ShardingPlan& base) const {
  FamilySearchOutcome out;
  const FamilyScope scope(ctx, family);
  ShardingPlan scratch = base;
  cost::CostArena& arena = cost::tls_cost_arena();
  arena.batch.reset();
  std::vector<int> choice(family.member_nodes.size(), 0);
  std::pair<int, std::int64_t> staged[cost::kCostBatchWidth];  // (k, bytes)
  for (std::size_t j = 0; j < family.member_nodes.size(); ++j) {
    int best_k = 0;
    FamilyScore best_local;
    bool have_local = false;

    auto flush = [&] {
      if (arena.batch.empty()) return;
      cost::comm_cost_batch(arena.batch, ctx.options().cluster,
                            arena.results);
      for (int l = 0; l < arena.batch.lanes(); ++l) {
        FamilyScore s;
        s.comm = arena.results[l].total();
        s.weight_bytes = staged[l].second;
        if (!have_local || s.better_than(best_local)) {
          have_local = true;
          best_local = s;
          best_k = staged[l].first;
        }
      }
      arena.batch.reset();
    };

    const auto& pats = ctx.table().at(family.member_nodes[j]);
    for (std::size_t k = 0; k < pats.size(); ++k) {
      choice[j] = static_cast<int>(k);
      ++out.stats.candidate_plans;
      set_member_choices(family, choice, &scratch);
      std::int64_t wb = 0;
      if (!ctx.stage(scratch, scope, &arena, &wb, &out.stats)) continue;
      ++out.stats.valid_plans;
      staged[arena.batch.lanes() - 1] = {static_cast<int>(k), wb};
      if (arena.batch.full()) flush();
    }
    // The member's winner must be known before the next member's
    // candidates build on it: drain the batch at each member boundary.
    flush();
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
