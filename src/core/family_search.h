// FamilySearchPolicy — the pluggable candidate-selection strategy behind
// the FamilySearch pass (§4.4, Algorithm 2).
//
// A policy picks the best member-pattern assignment for ONE subgraph
// family; the pass replays the winner onto every instance of the family.
// TAP ships three policies:
//   * ExhaustivePolicy — the full Cartesian product of member patterns
//     (729 candidates for a T5 encoder block, §6.3.1);
//   * GreedyPolicy     — optimize one member at a time, O(Σ patterns);
//   * AutoPolicy       — exhaustive while the product fits
//     TapOptions::max_plans_per_family, greedy beyond (the default).
// The Alpa-like and FlexFlow-like baselines implement the same interface
// with whole-graph mutation policies (src/baselines/*.cpp) and drive the
// same pipeline, so "which search strategy" is a plug-in decision, not a
// fork of the planner.
#pragma once

#include "core/plan_context.h"
#include "cost/comm_batch.h"
#include "sharding/enumerate.h"

namespace tap::core {

/// Candidate score: communication decides; near-ties go to the plan with
/// less per-device weight memory (the paper's §6.4.1 memory advantage).
struct FamilyScore {
  double comm = 0.0;
  std::int64_t weight_bytes = 0;

  bool better_than(const FamilyScore& other) const {
    if (comm < other.comm * (1.0 - 1e-9)) return true;
    if (comm > other.comm * (1.0 + 1e-9)) return false;
    return weight_bytes < other.weight_bytes;
  }
};

class FamilySearchContext;

/// Everything staging a candidate of one family needs that does not
/// depend on the candidate: the members' visit order and exit member,
/// their backward-compute window terms, and each weighted member's weight
/// bytes per pattern. A policy builds it once per family search — so a
/// family-cache hit never builds one — and every stage() call reads it,
/// which keeps a candidate at O(members) work with no sorting, no op_time
/// calls and no allocation (Table 2's per-candidate cost).
class FamilyScope {
 public:
  FamilyScope(const FamilySearchContext& ctx,
              const pruning::SubgraphFamily& family);

  const pruning::SubgraphFamily& family() const { return family_; }
  const sharding::SubgraphScope& routing() const { return routing_; }
  const cost::BackwardWindowTerms& window() const { return window_; }

  /// Local per-device bytes of the members' weights under `plan`'s member
  /// choices (dp replicas never shard weights; only the tp layout
  /// matters). `plan` must route, so every member choice is in range.
  std::int64_t weight_bytes(const sharding::ShardingPlan& plan) const;

 private:
  struct WeightedMember {
    ir::GraphNodeId id;
    std::size_t first;  ///< bytes_[first + pattern index]
  };

  const pruning::SubgraphFamily& family_;
  sharding::SubgraphScope routing_;
  cost::BackwardWindowTerms window_;
  std::vector<WeightedMember> weighted_;
  std::vector<std::int64_t> bytes_;
};

/// Read-only scoring facilities shared by every policy, bound to one
/// (graph, options, pattern table) triple. All methods are const and
/// thread-safe: the FamilySearch pass calls them concurrently for
/// disjoint families.
class FamilySearchContext {
 public:
  FamilySearchContext(const ir::TapGraph& tg, const TapOptions& opts,
                      const sharding::PatternTable& table)
      : tg_(tg), opts_(opts), table_(table) {}

  const ir::TapGraph& graph() const { return tg_; }
  const TapOptions& options() const { return opts_; }
  const sharding::PatternTable& table() const { return table_; }

  /// Steady-state subgraph score of `plan` restricted to `family`
  /// (Algorithm 3 over the members only: route once with a replicated
  /// boundary to learn the exit layout, then score with boundary = exit).
  /// Returns false when the candidate does not route. Equivalent to
  /// stage() + a one-lane comm_cost_batch flush, which is how it is
  /// implemented (over a thread-local arena separate from
  /// cost::tls_cost_arena, so calling score mid-batch is safe).
  bool score(const sharding::ShardingPlan& plan,
             const pruning::SubgraphFamily& family, FamilyScore* out,
             SearchStats* stats) const;

  /// Batched scoring, phase 1: routes `plan` restricted to the scope's
  /// family (replicated-boundary probe, then the steady-state route, both
  /// through `arena`'s reusable buffers — no per-candidate vector churn)
  /// and stages the routed candidate as the next lane of `arena->batch`.
  /// The caller owns phase 2: once the batch is full (or enumeration
  /// ends), cost::comm_cost_batch reduces all staged lanes in one kernel
  /// pass. Returns false — staging nothing — when the candidate does not
  /// route; on success `*weight_bytes` receives the tie-break memory
  /// term for FamilyScore. Only the members' choices in `plan` are read.
  /// Precondition: !arena->batch.full().
  bool stage(const sharding::ShardingPlan& plan, const FamilyScope& scope,
             cost::CostArena* arena, std::int64_t* weight_bytes,
             SearchStats* stats) const;

  /// stage() for callers without a FamilyScope: builds one per call, so
  /// it pays the per-family set-up on every candidate.
  bool stage(const sharding::ShardingPlan& plan,
             const pruning::SubgraphFamily& family, cost::CostArena* arena,
             std::int64_t* weight_bytes, SearchStats* stats) const;

  /// Full-graph communication cost of `plan` — the O(V+E) cost query the
  /// whole-graph baseline policies issue per trial. Returns false when the
  /// plan does not route.
  bool evaluate_full_graph(const sharding::ShardingPlan& plan, double* cost,
                           SearchStats* stats) const;

 private:
  const ir::TapGraph& tg_;
  const TapOptions& opts_;
  const sharding::PatternTable& table_;
};

/// Result of one family search.
struct FamilySearchOutcome {
  bool found = false;
  /// Winning pattern choice, aligned with family.member_nodes.
  std::vector<int> choice;
  SearchStats stats;
};

class FamilySearchPolicy {
 public:
  virtual ~FamilySearchPolicy() = default;
  virtual std::string name() const = 0;

  /// Selects a member-pattern assignment for `family`, starting from
  /// `base` (subgraph scoring only reads the members' choices, so the rest
  /// of `base` is irrelevant). Policies used by the parallel FamilySearch
  /// pass must be safe to call concurrently — the TAP policies are
  /// stateless; stochastic baseline policies keep internal state and are
  /// only driven single-threaded (one whole-graph family).
  virtual FamilySearchOutcome search(
      const FamilySearchContext& ctx, const pruning::SubgraphFamily& family,
      const sharding::ShardingPlan& base) const = 0;
};

/// Full Cartesian-product enumeration (Algorithm 2's inner loop).
class ExhaustivePolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "exhaustive"; }
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base) const override;
  /// search() over an enumerator the caller already built for `family`
  /// (AutoPolicy sizes the space with it first).
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base,
                             sharding::FamilyPlanEnumerator enumerator) const;
};

/// Greedy fallback: optimize one member at a time.
class GreedyPolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "greedy"; }
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base) const override;
};

/// The default strategy: exhaustive when the family's candidate count fits
/// TapOptions::max_plans_per_family, greedy beyond.
class AutoPolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "auto"; }
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base) const override;

 private:
  ExhaustivePolicy exhaustive_;
  GreedyPolicy greedy_;
};

}  // namespace tap::core
