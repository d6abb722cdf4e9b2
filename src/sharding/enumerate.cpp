#include "sharding/enumerate.h"

#include "util/check.h"

namespace tap::sharding {

FamilyPlanEnumerator::FamilyPlanEnumerator(
    const PatternTable& table, const pruning::SubgraphFamily& family) {
  counts_.reserve(family.member_nodes.size());
  for (ir::GraphNodeId id : family.member_nodes)
    counts_.push_back(static_cast<int>(table.at(id).size()));
  current_.assign(counts_.size(), 0);
}

FamilyPlanEnumerator::FamilyPlanEnumerator(
    const ir::TapGraph& tg, const pruning::SubgraphFamily& family,
    int num_shards) {
  counts_.reserve(family.member_nodes.size());
  for (ir::GraphNodeId id : family.member_nodes) {
    counts_.push_back(
        static_cast<int>(patterns_for(tg, id, num_shards, 1).size()));
    TAP_CHECK_GE(counts_.back(), 1);
  }
  current_.assign(counts_.size(), 0);
}

std::int64_t FamilyPlanEnumerator::total_plans() const {
  std::int64_t total = 1;
  for (int c : counts_) total *= c;
  return total;
}

bool FamilyPlanEnumerator::next(std::vector<int>* member_choice) {
  if (exhausted_) return false;
  if (!started_) {
    started_ = true;
    *member_choice = current_;
    return true;
  }
  // Mixed-radix increment.
  std::size_t i = 0;
  for (; i < counts_.size(); ++i) {
    if (++current_[i] < counts_[i]) break;
    current_[i] = 0;
  }
  if (i == counts_.size()) {
    exhausted_ = true;
    return false;
  }
  *member_choice = current_;
  return true;
}

void FamilyPlanEnumerator::reset() {
  current_.assign(counts_.size(), 0);
  exhausted_ = false;
  started_ = false;
}

}  // namespace tap::sharding
