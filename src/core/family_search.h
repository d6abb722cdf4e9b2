// FamilySearchPolicy — the pluggable candidate-selection strategy behind
// the FamilySearch pass (§4.4, Algorithm 2).
//
// A policy picks the best member-pattern assignment for ONE subgraph
// family; the pass replays the winner onto every instance of the family.
// TAP ships two policies:
//   * FrontierDpPolicy — the default: Algorithm 2's exact answer over the
//     full Cartesian product of member patterns, found by a dynamic
//     program over router frontier states instead of by scoring every
//     candidate;
//   * ExhaustivePolicy — Algorithm 2's loop: scores every candidate (729
//     for a T5 encoder block, §6.3.1) and keeps the first best; the
//     reference the DP is tested against.
// Both score a candidate the one way FamilySearchContext::evaluate does:
// a fresh route of the family's members and cost::comm_cost with the
// family's backward window. The service's family-memoizing policy wraps
// them (src/service/planner_service.h).
#pragma once

#include <span>

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

/// Everything scoring a candidate of one family needs that does not
/// depend on the candidate, as one table indexed by route position (the
/// visit order routing().order): each position's number of choices, its
/// backward-compute window terms and its weight bytes per choice, plus
/// each member's position and the exit member's position. A policy
/// builds it once per family search — so a family-cache hit never builds
/// one — and every evaluate() call and FrontierDpPolicy step reads it,
/// which keeps a candidate at O(members) work with no sorting, no op_time
/// calls and no allocation (Table 2's per-candidate cost).
class FamilyScope {
 public:
  FamilyScope(const FamilySearchContext& ctx,
              const pruning::SubgraphFamily& family);

  const pruning::SubgraphFamily& family() const { return family_; }
  const sharding::SubgraphScope& routing() const { return routing_; }
  const cost::BackwardWindowTerms& window() const { return window_; }

  /// Route positions, one per member.
  std::size_t size() const { return at_.size(); }
  /// The position of routing().exit (size() when the family has none).
  std::size_t exit() const { return exit_; }
  /// Member `j`'s (family.member_nodes[j]'s) position.
  std::size_t position(std::size_t j) const { return position_[j]; }
  /// Position `p`'s number of choices: its PatternTable row size.
  int choices(std::size_t p) const { return at_[p].choices; }
  /// window().term(j, split) for the member j at position `p`.
  double window_term(std::size_t p, bool split) const {
    return split ? at_[p].window_split : at_[p].window_replicated;
  }
  /// Position `p`'s local per-device weight bytes under pattern `choice`
  /// (dp replicas never shard weights; only the tp layout matters; 0 for
  /// a member without weights).
  std::int64_t weight_bytes(std::size_t p, int choice) const {
    return bytes_[at_[p].bytes_first + static_cast<std::size_t>(choice)];
  }
  /// The members' weight_bytes() under `plan`'s member choices. `plan`
  /// must route, so every member choice is in range.
  std::int64_t weight_bytes(const sharding::ShardingPlan& plan) const;

 private:
  struct Position {
    int choices = 0;
    double window_replicated = 0.0, window_split = 0.0;
    std::size_t bytes_first = 0;  ///< into bytes_, one entry per choice
  };

  const pruning::SubgraphFamily& family_;
  sharding::SubgraphScope routing_;
  cost::BackwardWindowTerms window_;
  std::vector<Position> at_;
  std::vector<std::size_t> position_;
  std::size_t exit_ = 0;
  std::vector<std::int64_t> bytes_;
};

/// Routing work one family search did, beyond the SearchStats the plan
/// bytes pin: a cached outcome replayed without searching did none.
struct FamilySearchWork {
  /// Nodes the search routed: the members of every route
  /// FamilySearchContext::evaluate ran, plus FrontierDpPolicy's DP steps;
  /// SearchStats::nodes_visited counts every member of every candidate.
  std::int64_t nodes_routed = 0;
  /// FrontierDpPolicy: the frontier-state steps of its DP (also in
  /// nodes_routed), and the candidates it then scored exactly to pick
  /// Algorithm 2's winner.
  std::int64_t dp_steps = 0;
  std::int64_t band_candidates = 0;
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

  /// Steady-state subgraph score of `plan` restricted to the family of
  /// `scope` (Algorithm 3 over the members only): a probe route with a
  /// replicated boundary gives the exit layout; when that layout is not
  /// replicated, the steady-state route at it follows (otherwise the
  /// probe is the steady state), costed by cost::comm_cost with the
  /// family's window. Both routes run fresh, in O(members), through the
  /// calling thread's CostArena. Returns false when the candidate does
  /// not route. Adds the members of each route it runs to
  /// `work->nodes_routed`. Only the members' choices in `plan` are read.
  bool evaluate(const sharding::ShardingPlan& plan, const FamilyScope& scope,
                FamilyScore* out, SearchStats* stats,
                FamilySearchWork* work) const;

  /// perfbench's cost probe; the policies call evaluate(). Builds a
  /// FamilyScope for `family`, routes `plan` restricted to it as
  /// evaluate() does, through `arena`'s routing buffers, and adds the
  /// steady-state route as the next lane of `arena->batch`, for
  /// cost::comm_cost_batch to cost. Returns false, adding nothing, when
  /// the candidate does not route; on success `*weight_bytes` receives
  /// FamilyScore's tie-break term. The validity, `*weight_bytes`, `stats`
  /// and the lane's comm_cost equal what evaluate() gives. Only the
  /// members' choices in `plan` are read. Precondition:
  /// !arena->batch.full().
  bool stage(const sharding::ShardingPlan& plan,
             const pruning::SubgraphFamily& family, cost::CostArena* arena,
             std::int64_t* weight_bytes, SearchStats* stats) const;

 private:
  /// The routes evaluate() and stage() share: the probe into
  /// `arena->probe`, then, unless its exit layout is replicated, the
  /// steady-state route into `arena->routed`. Returns the steady-state
  /// route, or nullptr when a route fails. Adds the members of each route
  /// it runs to `*routed`.
  sharding::RoutedPlan* route(const sharding::ShardingPlan& plan,
                              const FamilyScope& scope, cost::CostArena* arena,
                              std::int64_t* routed) const;

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
  FamilySearchWork work;
};

/// Algorithm 2's winner: the rank a first-best scan of `scores` in rank
/// order keeps, where the scan starts at the first valid rank and moves
/// to every later valid one better_than the rank it holds. better_than
/// has a tolerance, so the scan order decides near-ties. Returns -1 when
/// no rank is valid.
std::int64_t first_best_rank(std::span<const FamilyScore> scores,
                             std::span<const char> valid);

/// FrontierDpPolicy's band edge. `comms` are ascending scores that
/// include every candidate scoring at most `cover` (higher ones may be
/// listed too). Returns the least listed score A with A * (1 + 4e-9) <=
/// `cover` and no listed score in (A, A * (1 + 4e-9)], or -1 when there
/// is none. Then every candidate at or below A is better_than every
/// candidate above it, and none above it is better_than one at or below
/// it, so first_best_rank over the candidates at or below A returns the
/// winner of first_best_rank over them all.
double band_edge(std::span<const double> comms, double cover);

class FamilySearchPolicy {
 public:
  virtual ~FamilySearchPolicy() = default;
  virtual std::string name() const = 0;

  /// Selects a member-pattern assignment for `family`, starting from
  /// `base` (subgraph scoring only reads the members' choices, so the rest
  /// of `base` is irrelevant). A policy is stateless and thread-safe: its
  /// outcome depends only on its arguments (a memo such as the service's
  /// CachingFamilyPolicy returns what the search would), because the
  /// FamilySearch pass calls it concurrently for disjoint families and the
  /// mesh sweep shares one policy across factorizations.
  virtual FamilySearchOutcome search(
      const FamilySearchContext& ctx, const pruning::SubgraphFamily& family,
      const sharding::ShardingPlan& base) const = 0;
};

/// The default policy: Algorithm 2's winner and counters over the full
/// Cartesian product, found by a forward dynamic program over router
/// frontier states (sharding::FrontierState) instead of by scoring every
/// candidate.
///
/// A candidate's score is the steady-state route's comm_cost with the
/// family's window: Σ exposed + max(0, Σ overlappable − Σ window) over
/// its members' steps. Its exit layout L comes from the probe route
/// (replicated boundary), and the steady-state route has boundary L. So
/// the policy runs one DP per exit layout L over the joint state of two
/// routes, the probe and the steady state at L (one when L is
/// replicated). Each DP step restores a state, routes one member with one
/// choice (sharding::FrontierRouter) and sums the events it emitted,
/// reading the member's window term and weight bytes from FamilyScope.
/// Equal joint states have equal futures, so they merge. A prefix whose
/// probe hands the exit member a layout other than L is dropped. Each
/// state keeps:
///   * the number of prefixes that reach it, so the counters are exact
///     path counts. `candidate_plans` is the product of the counts,
///     `valid_plans` = `cost_queries` is the number of valid paths, and
///     `nodes_visited` is members × candidates;
///   * the least weight bytes over them;
///   * bounds over its completions, from a backward pass.
/// The score is monotone in Σ exposed and Σ (overlappable − window), so
/// Pareto labels over the two give the least score m. A label travels
/// forward only until its state's completion bounds fix the sign of the
/// final excess, which settles its best score at once.
/// A state's steps do not depend on its route's boundary, so one lane of
/// states and (state, choice) steps serves every route of the family.
///
/// Algorithm 2's winner is a first-best scan in rank order with a 1e-9
/// tolerance and a weight-bytes tie-break (first_best_rank), not a DP
/// objective. It is found in two ways:
///   1. The plateau rule. When rank 0, the all-zeros candidate, is valid,
///      the scan starts there. If no candidate scores below its tolerance
///      band (m's lower bound says so) and none has fewer weight bytes
///      (the least weight bytes say so), then no candidate is better_than
///      it, and it wins. Only it is scored exactly. This is the case when
///      every candidate ties (tp = 1).
///   2. The band. Otherwise, a walk in route order, pruned by a per-state
///      cost-to-go bound, scores exactly (FamilySearchContext::evaluate)
///      every candidate up to a threshold near m. A band edge A is chosen so
///      that no candidate scores in (A, A(1 + 4e-9)]. Then every candidate
///      at or below A is better_than every candidate above it, and none
///      above it is better_than one at or below it. So the scan's holder,
///      once it reaches the band, never leaves it, and the scan over the
///      band alone keeps the same winner.
/// Every DP sum is a reordering of comm_cost's, and the thresholds carry
/// a bound on that rounding. Allocation-free per DP step and per label
/// once the per-thread buffers have grown.
class FrontierDpPolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "frontier-dp"; }
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base) const override;
};

/// Full Cartesian-product search (Algorithm 2's inner loop): every
/// candidate in FamilyPlanEnumerator's order through
/// FamilySearchContext::evaluate, the first best kept as it comes. The
/// reference FrontierDpPolicy is tested against.
class ExhaustivePolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "exhaustive"; }
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base) const override;
};

}  // namespace tap::core
