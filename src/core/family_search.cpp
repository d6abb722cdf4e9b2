#include "core/family_search.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sharding/enumerate.h"
#include "sharding/routing.h"
#include "util/check.h"

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

/// ExhaustivePolicy's per-thread buffers, reused across families.
struct WalkBuffers {
  RouteOrderWalk walk;
  std::vector<std::size_t> positions;  ///< per member
  std::vector<FamilyScore> scores;     ///< by Algorithm 2 rank
  std::vector<char> valid;             ///< by Algorithm 2 rank
};

WalkBuffers& tls_walk_buffers() {
  thread_local WalkBuffers buffers;
  return buffers;
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
                                const SubgraphFamily& family,
                                cost::CostArena* arena,
                                std::int64_t* weight_bytes_out,
                                SearchStats* stats) const {
  const FamilyScope scope(*this, family);
  stats->nodes_visited +=
      static_cast<std::int64_t>(family.member_nodes.size());
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
  arena->batch.add_candidate(&arena->routed, plan.num_shards, copts);
  *weight_bytes_out = scope.weight_bytes(plan);
  return true;
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
  // Every member is visited once per candidate, however much of the
  // route the evaluator reuses.
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

void RouteOrderWalk::reset(const std::vector<int>& counts,
                           const std::vector<std::size_t>& positions) {
  TAP_CHECK_EQ(counts.size(), positions.size());
  digits_.clear();
  total_ = 1;
  rank_ = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    TAP_CHECK_GE(counts[j], 1);
    TAP_CHECK_LE(total_, std::numeric_limits<std::int64_t>::max() / counts[j])
        << "the candidate space overflows a 64-bit rank";
    if (counts[j] > 1)
      digits_.push_back({j, positions[j], counts[j], total_, 0});
    total_ *= counts[j];
  }
  std::sort(digits_.begin(), digits_.end(),
            [](const Digit& a, const Digit& b) {
              return a.position > b.position;
            });
}

std::int64_t RouteOrderWalk::skip_after(std::size_t position) {
  std::int64_t skipped = 0, block = 1;
  for (Digit& d : digits_) {
    if (d.position <= position) break;
    skipped += (d.count - 1 - d.value) * block;
    rank_ += (d.count - 1 - d.value) * d.stride;
    d.value = d.count - 1;
    block *= d.count;
  }
  return skipped;
}

std::int64_t first_best_rank(std::span<const FamilyScore> scores,
                             std::span<const char> valid) {
  TAP_CHECK_EQ(scores.size(), valid.size());
  std::int64_t best = -1;
  for (std::size_t r = 0; r < scores.size(); ++r) {
    if (valid[r] &&
        (best < 0 ||
         scores[r].better_than(scores[static_cast<std::size_t>(best)])))
      best = static_cast<std::int64_t>(r);
  }
  return best;
}

FamilySearchOutcome ExhaustivePolicy::search(
    const FamilySearchContext& ctx, const SubgraphFamily& family,
    const ShardingPlan& base, FamilyPlanEnumerator enumerator) const {
  FamilySearchOutcome out;
  const FamilyScope scope(ctx, family);
  cost::FamilyCandidateEvaluator& eval = cost::tls_cost_arena().candidates;
  ctx.bind(scope, &eval);
  const ir::TapGraph& tg = ctx.graph();
  const std::vector<ir::GraphNodeId>& members = family.member_nodes;
  const std::vector<ir::GraphNodeId>& order = scope.routing().order;
  const std::vector<int>& counts = enumerator.counts();
  WalkBuffers& buf = tls_walk_buffers();
  buf.positions.clear();
  for (ir::GraphNodeId id : members) {
    const auto at = std::lower_bound(
        order.begin(), order.end(), id,
        [&](ir::GraphNodeId a, ir::GraphNodeId b) {
          return tg.topo_position(a) < tg.topo_position(b);
        });
    buf.positions.push_back(static_cast<std::size_t>(at - order.begin()));
  }
  RouteOrderWalk& walk = buf.walk;
  walk.reset(counts, buf.positions);
  const auto total = static_cast<std::size_t>(walk.total());
  buf.scores.resize(total);
  buf.valid.assign(total, 0);

  ShardingPlan scratch = base;
  for (ir::GraphNodeId id : members)
    scratch.choice[static_cast<std::size_t>(id)] = 0;
  const auto set_choice = [&](std::size_t member, int choice) {
    scratch.choice[static_cast<std::size_t>(members[member])] = choice;
  };
  const auto num_members = static_cast<std::int64_t>(members.size());
  do {
    ++out.stats.candidate_plans;
    FamilyScore s;
    const auto rank = static_cast<std::size_t>(walk.rank());
    if (ctx.evaluate(scratch, scope, &eval, &s, &out.stats)) {
      ++out.stats.valid_plans;
      buf.scores[rank] = s;
      buf.valid[rank] = 1;
      continue;
    }
    // A failed probe fails every candidate that keeps the choices up to
    // its failing position: count them as visited, invalid candidates.
    // After a steady-state failure the position is past every member, so
    // nothing is skipped.
    const std::int64_t skipped = walk.skip_after(eval.probe_failed_at());
    out.stats.candidate_plans += skipped;
    out.stats.nodes_visited += skipped * num_members;
    out.work.skipped_candidates += skipped;
  } while (walk.next(set_choice));
  out.work.nodes_routed = static_cast<std::int64_t>(eval.nodes_routed());

  std::int64_t best = first_best_rank(buf.scores, buf.valid);
  if (best >= 0) {
    out.found = true;
    out.choice.resize(members.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
      out.choice[j] = static_cast<int>(best % counts[j]);
      best /= counts[j];
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
  out.work.nodes_routed = static_cast<std::int64_t>(eval.nodes_routed());
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
