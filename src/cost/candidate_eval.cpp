#include "cost/candidate_eval.h"

#include "util/check.h"

namespace tap::cost {

using sharding::ShardSpec;

void FamilyCandidateEvaluator::bind(const ir::TapGraph& tg,
                                    const sharding::PatternTable& table,
                                    const sharding::SubgraphScope& scope,
                                    const BackwardWindowTerms& window,
                                    const ClusterSpec& cluster,
                                    const CostOptions& opts) {
  tg_ = &tg;
  table_ = &table;
  scope_ = &scope;
  window_ = &window;
  cluster_ = &cluster;
  opts_ = opts;
  probe_.route.bind(tg, scope, ShardSpec::replicate(), table);
  probe_.cost.truncate(0);
  steady_bound_ = 0;
  last_ = -2;
}

bool FamilyCandidateEvaluator::route(Lane& lane,
                                     const sharding::ShardingPlan& plan) {
  const bool valid = lane.route.route(plan).valid;
  lane.cost.truncate(lane.route.resumed_comms());
  return valid;
}

FamilyCandidateEvaluator::Lane& FamilyCandidateEvaluator::steady_lane(
    const ShardSpec& exit) {
  for (std::size_t i = 0; i < steady_bound_; ++i)
    if (steady_[i].route.boundary() == exit) return steady_[i];
  if (steady_bound_ == steady_.size()) steady_.emplace_back();
  Lane& lane = steady_[steady_bound_++];
  lane.route.bind(*tg_, *scope_, exit, *table_);
  lane.cost.truncate(0);
  return lane;
}

bool FamilyCandidateEvaluator::evaluate(const sharding::ShardingPlan& plan,
                                        PlanCost* cost) {
  TAP_CHECK(scope_ != nullptr) << "FamilyCandidateEvaluator before bind";
  if (!route(probe_, plan)) return false;
  const ShardSpec exit =
      sharding::subgraph_exit_spec(probe_.route.routed(), *scope_);
  // A replicated exit layout would route the probe again (same plan, same
  // boundary): the probe is the steady state.
  Lane* lane = &probe_;
  std::ptrdiff_t index = -1;
  if (exit != ShardSpec::replicate()) {
    lane = &steady_lane(exit);
    index = lane - steady_.data();
    if (!route(*lane, plan)) return false;
  }
  CostOptions copts = opts_;
  copts.overlap_window_s = window_->window(lane->route.routed(), *table_);
  *cost = lane->cost.cost(lane->route.routed(), plan.num_shards, *cluster_,
                          copts);
  last_ = index;
  return true;
}

std::size_t FamilyCandidateEvaluator::nodes_routed() const {
  std::size_t steps = probe_.route.steps();
  for (std::size_t i = 0; i < steady_bound_; ++i)
    steps += steady_[i].route.steps();
  return steps;
}

const sharding::RoutedPlan& FamilyCandidateEvaluator::routed() const {
  TAP_CHECK(last_ != -2) << "no candidate evaluated since bind";
  if (last_ == -1) return probe_.route.routed();
  return steady_[static_cast<std::size_t>(last_)].route.routed();
}

void FamilyStepScorer::bind(const ir::TapGraph& tg,
                            const sharding::PatternTable& table,
                            const sharding::SubgraphScope& scope,
                            const BackwardWindowTerms& window,
                            std::span<const std::size_t> positions,
                            const ClusterSpec& cluster,
                            const ShardSpec& boundary) {
  table_ = &table;
  scope_ = &scope;
  cluster_ = &cluster;
  router_.bind(tg, scope, boundary, table);
  TAP_CHECK_EQ(window.size(), positions.size());
  replicated_.resize(positions.size());
  split_.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    replicated_[positions[i]] = window.term(i, false);
    split_[positions[i]] = window.term(i, true);
  }
}

bool FamilyStepScorer::step(int choice, sharding::FrontierState* next,
                            StepScore* score) {
  if (!router_.step(choice, next)) return false;
  const std::size_t p = position_;
  *score = StepScore{};
  for (const sharding::CommEvent& e : router_.events()) {
    const double t = comm_event_time(e, table_->num_shards(), *cluster_);
    (e.overlappable ? score->overlappable : score->exposed) += t;
  }
  const ir::GraphNodeId id = scope_->order[p];
  const bool split =
      router_.layout().is_split() ||
      table_->at(id)[static_cast<std::size_t>(choice)].weight.is_split();
  score->window = split ? split_[p] : replicated_[p];
  return true;
}

}  // namespace tap::cost
