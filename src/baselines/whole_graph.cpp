#include "baselines/whole_graph.h"

namespace tap::baselines {

WholeGraphScorer::WholeGraphScorer(const ir::TapGraph& tg, int num_shards,
                                   const cost::ClusterSpec& cluster)
    : tg_(tg),
      cluster_(cluster),
      table_(tg, num_shards, /*dp_replicas=*/1),
      terms_(tg, nullptr, num_shards, /*dp_replicas=*/1, cluster),
      weighted_(tg.weight_nodes()) {}

void WholeGraphScorer::mutate(sharding::ShardingPlan* plan,
                              util::Rng* rng) const {
  const ir::GraphNodeId pick = weighted_[rng->next_below(weighted_.size())];
  plan->choice[static_cast<std::size_t>(pick)] =
      static_cast<int>(rng->next_below(table_.at(pick).size()));
}

bool WholeGraphScorer::evaluate(const sharding::ShardingPlan& plan,
                                double* cost) {
  ops_visited_ += static_cast<std::int64_t>(tg_.num_nodes());
  sharding::route_plan_into(tg_, plan, table_, &scratch_, &routed_);
  if (!routed_.valid) return false;
  ++cost_queries_;
  *cost = cost::comm_cost(routed_, cluster_, terms_.window(routed_, table_))
              .total();
  return true;
}

}  // namespace tap::baselines
