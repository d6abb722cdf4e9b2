// Whole-graph plan scoring for the Alpa-like and FlexFlow-like baselines
// (§5.1.2, Table 2 rows "Alpa"/"FlexFlow").
//
// Neither baseline reduces its search space: both mutate one op-level
// plan of the whole graph and score every trial with a full-graph route
// and cost query, O(V+E) each; TAP scores folded families instead
// (core/family_search.h). A trial costs what core::finalize_cost gives
// its route, so both searches rank plans under one overlap rule.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/cost_model.h"
#include "sharding/pattern.h"
#include "sharding/plan.h"
#include "sharding/routing.h"
#include "util/rng.h"

namespace tap::baselines {

/// Scores whole plans of one op-level graph at one tp group size. Owns
/// the group's PatternTable, its full-graph backward-window terms and one
/// set of routing buffers, so a trial allocates nothing once the buffers
/// have grown. Not thread-safe.
class WholeGraphScorer {
 public:
  WholeGraphScorer(const ir::TapGraph& tg, int num_shards,
                   const cost::ClusterSpec& cluster);

  /// The weighted nodes: the decisions a mutation can change.
  const std::vector<ir::GraphNodeId>& weighted() const { return weighted_; }

  /// Redraws one weighted node's pattern in `plan`: first the node, then
  /// its pattern index, each from `rng`. Precondition: weighted() is not
  /// empty.
  void mutate(sharding::ShardingPlan* plan, util::Rng* rng) const;

  /// Routes `plan` over the full graph and sets `*cost` to the route's
  /// core::finalize_cost total, bit for bit. Returns false when the plan
  /// does not route. Counts V visited ops per call and one cost query per
  /// plan that routes.
  bool evaluate(const sharding::ShardingPlan& plan, double* cost);

  std::int64_t ops_visited() const { return ops_visited_; }
  std::int64_t cost_queries() const { return cost_queries_; }

 private:
  const ir::TapGraph& tg_;
  const cost::ClusterSpec& cluster_;
  sharding::PatternTable table_;
  cost::BackwardWindowTerms terms_;
  std::vector<ir::GraphNodeId> weighted_;
  sharding::RoutingScratch scratch_;
  sharding::RoutedPlan routed_;
  std::int64_t ops_visited_ = 0;
  std::int64_t cost_queries_ = 0;
};

}  // namespace tap::baselines
