// Incremental FamilySearch candidate costing (§4.4, Table 2's
// per-candidate term).
//
// Algorithm 3 visits a family's members in topological order, so the
// members visited before the first choice that changed since the last
// candidate route to the same layouts and collectives as last time.
// FamilyCandidateEvaluator keeps the routes of the previous candidates
// (sharding::RouteCursor) and the partial sums of their costs
// (CommCostPrefix), and redoes only the part past the first change. The
// result is the same as routing and costing every candidate from
// scratch, bit for bit, whatever order the candidates come in.
// core::ExhaustivePolicy exploits that: it walks a family's candidates
// with the last-visited member changing fastest, so consecutive
// candidates differ near the family's exit and re-route only a few
// members each.
#pragma once

#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "sharding/routing.h"

namespace tap::cost {

/// Scores the candidates of one family search in Algorithm 3's steady
/// state:
///   1. a probe route with a replicated boundary, to learn the exit
///      layout the subgraph hands downstream;
///   2. the steady-state route with that exit layout as the boundary (the
///      probe itself when the exit layout is replicated);
///   3. comm_cost of the steady-state route, its overlap window from the
///      family's backward-window terms.
/// The probe and each exit layout's steady-state route have their own
/// cursor and cost prefix, so a candidate whose exit layout alternates
/// with the previous one's still resumes from that layout's last route.
/// Allocation-free once the capacities have grown; binding to a family
/// costs O(members).
class FamilyCandidateEvaluator {
 public:
  /// Binds to one family search. Every argument must outlive the
  /// candidates evaluated under this binding.
  void bind(const ir::TapGraph& tg, const sharding::PatternTable& table,
            const sharding::SubgraphScope& scope,
            const BackwardWindowTerms& window, const ClusterSpec& cluster,
            const CostOptions& opts);

  /// Routes and costs `plan`'s member choices. Returns false when the
  /// probe or the steady-state route fails; otherwise `*cost` is
  /// bit-identical to comm_cost of a fresh steady-state route.
  bool evaluate(const sharding::ShardingPlan& plan, PlanCost* cost);

  /// The steady-state route of the last evaluate() that returned true.
  const sharding::RoutedPlan& routed() const;

  /// The visit position (in the scope's order) at which the last
  /// evaluate()'s probe route failed, or the number of members when the
  /// probe routed (the candidate may still fail its steady-state route).
  /// The probe's boundary is always replicated, so every candidate with
  /// the same choices at positions up to this one fails there too.
  std::size_t probe_failed_at() const { return probe_.route.failed_at(); }

  /// Nodes routed since bind(): RouteCursor::steps() summed over the
  /// probe and steady-state lanes.
  std::size_t nodes_routed() const;

 private:
  struct Lane {
    sharding::RouteCursor route;
    CommCostPrefix cost;
  };

  /// Routes `plan` through `lane`; false when the route fails.
  static bool route(Lane& lane, const sharding::ShardingPlan& plan);
  /// The steady-state lane of exit layout `exit`, bound on first use.
  Lane& steady_lane(const sharding::ShardSpec& exit);

  const ir::TapGraph* tg_ = nullptr;
  const sharding::PatternTable* table_ = nullptr;
  const sharding::SubgraphScope* scope_ = nullptr;
  const BackwardWindowTerms* window_ = nullptr;
  const ClusterSpec* cluster_ = nullptr;
  CostOptions opts_;
  Lane probe_;
  /// Steady-state lanes of the non-replicated exit layouts seen since
  /// bind(); the first `steady_bound_` are bound, the rest keep capacity.
  std::vector<Lane> steady_;
  std::size_t steady_bound_ = 0;
  /// The lane routed() reads: -1 for the probe, else a steady_
  /// index (an index, as steady_ may grow); -2 before any.
  std::ptrdiff_t last_ = -2;
};

/// What routing one member adds to a candidate's steady-state score, in
/// comm_cost's terms. A candidate's comm_cost total with its family's
/// window is Σ exposed + max(0, Σ overlappable − Σ window) over its
/// members' steps, up to the order of the additions.
struct StepScore {
  double exposed = 0.0;       ///< non-overlappable events' time
  double overlappable = 0.0;  ///< overlappable events' time
  double window = 0.0;        ///< the member's backward-window term
};

/// One lane of a family search over router frontier states: a
/// sharding::FrontierRouter over the family's members at one boundary,
/// which also scores each step (StepScore). Allocation-free once the
/// capacities have grown; binding costs O(members + reads).
class FamilyStepScorer {
 public:
  /// Binds to a family at `boundary`. Every argument must outlive the
  /// steps. `window` holds the family's terms, one cluster per member,
  /// and `positions` each member's visit position in `scope.order`.
  void bind(const ir::TapGraph& tg, const sharding::PatternTable& table,
            const sharding::SubgraphScope& scope,
            const BackwardWindowTerms& window,
            std::span<const std::size_t> positions,
            const ClusterSpec& cluster, const sharding::ShardSpec& boundary);

  const sharding::FrontierState& initial() const { return router_.initial(); }

  /// FrontierRouter::restore.
  void restore(const sharding::FrontierState& from, std::size_t p) {
    router_.restore(from, p);
    position_ = p;
  }
  /// FrontierRouter::step, and on success the step's score in `*score`.
  bool step(int choice, sharding::FrontierState* next, StepScore* score);

  /// The output layout of the member the last step routed.
  const sharding::ShardSpec& layout() const { return router_.layout(); }
  std::size_t steps() const { return router_.steps(); }

 private:
  const sharding::PatternTable* table_ = nullptr;
  const sharding::SubgraphScope* scope_ = nullptr;
  const ClusterSpec* cluster_ = nullptr;
  sharding::FrontierRouter router_;
  /// Per position: the member's window term, replicated and split.
  std::vector<double> replicated_, split_;
  std::size_t position_ = 0;
};

}  // namespace tap::cost
