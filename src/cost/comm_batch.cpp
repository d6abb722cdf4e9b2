#include "cost/comm_batch.h"

#include <utility>

#include "util/check.h"

namespace tap::cost {

void CommEventBatch::add_candidate(sharding::RoutedPlan* routed,
                                   const CostOptions& opts) {
  TAP_CHECK(!full()) << "CommEventBatch already holds " << kCostBatchWidth
                     << " candidates";
  TAP_CHECK(routed->valid) << "cannot batch an invalid plan: "
                           << routed->error;
  Lane& lane = lane_[lanes_++];
  std::swap(lane.routed, *routed);
  lane.opts = opts;
}

void comm_cost_batch(const CommEventBatch& batch, const ClusterSpec& cluster,
                     PlanCost out[kCostBatchWidth]) {
  for (int l = 0; l < batch.lanes(); ++l) {
    const CommEventBatch::Lane& lane = batch.lane(l);
    out[l] = comm_cost(lane.routed, cluster, lane.opts);
  }
}

CostArena& tls_cost_arena() {
  static thread_local CostArena arena;
  return arena;
}

}  // namespace tap::cost
