// Per-thread candidate-costing scratch, and the small candidate batch
// perfbench's cost probe fills through FamilySearchContext::stage.
//
// cost::comm_cost is the only implementation of the comm-cost math
// (§4.6). The planner's family search routes each candidate it scores
// fresh and costs it with comm_cost (FamilySearchContext::evaluate); a
// CommEventBatch just holds up to kCostBatchWidth routed candidates, and
// comm_cost_batch costs each of them with comm_cost.
//
// CostArena is the per-thread scratch that makes candidate evaluation
// allocation-free in steady state: reusable routing buffers (probe +
// exit-spec route) and the batch with its result slots. Policies obtain
// one via tls_cost_arena().
#pragma once

#include "cost/cost_model.h"
#include "sharding/routing.h"

namespace tap::cost {

/// Candidates one CommEventBatch holds.
inline constexpr int kCostBatchWidth = 8;

/// Up to kCostBatchWidth routed candidates, each with the cost options
/// comm_cost needs. Lanes keep their buffers across reset(), so a
/// refilled batch reuses their capacity.
class CommEventBatch {
 public:
  struct Lane {
    sharding::RoutedPlan routed;
    CostOptions opts;
  };

  /// Drops all lanes; keeps their buffers.
  void reset() { lanes_ = 0; }

  int lanes() const { return lanes_; }
  bool empty() const { return lanes_ == 0; }
  bool full() const { return lanes_ == kCostBatchWidth; }
  const Lane& lane(int l) const { return lane_[l]; }

  /// Swaps `*routed` into the next lane, so `*routed` receives that
  /// lane's previous buffers. Precondition: !full() and routed->valid.
  void add_candidate(sharding::RoutedPlan* routed, const CostOptions& opts);

 private:
  int lanes_ = 0;
  Lane lane_[kCostBatchWidth];
};

/// out[l] = comm_cost of lane l, for every lane of `batch`.
void comm_cost_batch(const CommEventBatch& batch, const ClusterSpec& cluster,
                     PlanCost out[kCostBatchWidth]);

/// Per-thread scratch for candidate evaluation: the routing buffers
/// FamilySearchContext::evaluate and stage route into, and the event
/// batch stage fills (no RoutedPlan vector churn).
struct CostArena {
  sharding::RoutingScratch routing;
  sharding::RoutedPlan probe;   ///< replicated-boundary probe route
  sharding::RoutedPlan routed;  ///< steady-state (exit-spec) route
  CommEventBatch batch;
  PlanCost results[kCostBatchWidth];
};

/// The calling thread's CostArena (function-local thread_local).
CostArena& tls_cost_arena();

}  // namespace tap::cost
