// Per-step scoring of FamilySearch candidates (§4.4, Table 2's
// per-candidate term) for core::FrontierDpPolicy's DP over router
// frontier states.
//
// A candidate's steady-state score is the comm_cost of its steady-state
// route with the family's backward window. The DP builds that score one
// member at a time: FamilyStepScorer routes one member from a frontier
// state and reports what the step adds (StepScore). A whole candidate is
// scored by routing it fresh (core::FamilySearchContext::evaluate).
#pragma once

#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "sharding/routing.h"

namespace tap::cost {

/// What routing one member adds to a candidate's steady-state score, in
/// comm_cost's terms. A candidate's comm_cost total with its family's
/// window is Σ exposed + max(0, Σ overlappable − Σ window) over its
/// members' steps, up to the order of the additions.
struct StepScore {
  double exposed = 0.0;       ///< non-overlappable events' time
  double overlappable = 0.0;  ///< overlappable events' time
  double window = 0.0;        ///< the member's backward-window term
};

/// The steps of a family search over router frontier states: a
/// sharding::FrontierRouter over the family's members, at every
/// boundary, which also scores each step (StepScore). Allocation-free
/// once the capacities have grown; binding costs O(members + reads).
class FamilyStepScorer {
 public:
  /// Binds to a family. Every argument must outlive the steps. `window`
  /// holds the family's terms, one cluster per member, and `positions`
  /// each member's visit position in `scope.order`.
  void bind(const ir::TapGraph& tg, const sharding::PatternTable& table,
            const sharding::SubgraphScope& scope,
            const BackwardWindowTerms& window,
            std::span<const std::size_t> positions,
            const ClusterSpec& cluster);

  /// FrontierRouter::initial.
  void initial(const sharding::ShardSpec& boundary,
               sharding::FrontierState* out) {
    router_.initial(boundary, out);
  }

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
