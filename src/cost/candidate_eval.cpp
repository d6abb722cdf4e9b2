#include "cost/candidate_eval.h"

#include "util/check.h"

namespace tap::cost {

using sharding::ShardSpec;

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
    const double t = comm_event_time(e, *cluster_);
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
