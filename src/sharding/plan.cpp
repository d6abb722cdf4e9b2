#include "sharding/plan.h"

#include <sstream>

#include "util/check.h"

namespace tap::sharding {

ShardingPlan default_plan(const ir::TapGraph& tg, int num_shards,
                          int dp_replicas) {
  ShardingPlan plan;
  plan.num_shards = num_shards;
  plan.dp_replicas = dp_replicas;
  plan.choice.assign(tg.num_nodes(), 0);
  return plan;
}

void apply_family_choice(const pruning::SubgraphFamily& family,
                         const std::vector<int>& member_choice,
                         ShardingPlan* plan) {
  TAP_CHECK_EQ(member_choice.size(), family.member_nodes.size());
  for (const auto& instance : family.instance_nodes) {
    TAP_CHECK_EQ(instance.size(), member_choice.size());
    for (std::size_t j = 0; j < instance.size(); ++j) {
      std::size_t idx = static_cast<std::size_t>(instance[j]);
      TAP_CHECK_LT(idx, plan->choice.size());
      plan->choice[idx] = member_choice[j];
    }
  }
}

std::string describe_plan(const ir::TapGraph& tg, const ShardingPlan& plan,
                          std::size_t max_nodes) {
  const PatternTable table(tg, plan.num_shards, plan.dp_replicas);
  std::ostringstream os;
  std::size_t shown = 0;
  for (const auto& n : tg.nodes()) {
    if (!n.has_weight()) continue;
    if (shown++ >= max_nodes) {
      os << "  ...\n";
      break;
    }
    const auto& pats = table.at(n.id);
    int c = plan.choice[static_cast<std::size_t>(n.id)];
    std::string pat = (c >= 0 && c < static_cast<int>(pats.size()))
                          ? pats[static_cast<std::size_t>(c)].name
                          : "<invalid>";
    os << "  " << n.name << " -> " << pat << "\n";
  }
  return os.str();
}

}  // namespace tap::sharding
