#include "baselines/expert_plans.h"

#include "util/check.h"

namespace tap::baselines {

namespace {

using sharding::ShardingPlan;

bool is_attention_proj_in(const std::string& name) {
  return name.find("/mha/q") != std::string::npos ||
         name.find("/mha/k") != std::string::npos ||
         name.find("/mha/v") != std::string::npos ||
         name.find("/cross/q") != std::string::npos ||
         name.find("/cross/k") != std::string::npos ||
         name.find("/cross/v") != std::string::npos;
}

bool is_attention_proj_out(const std::string& name) {
  return name.find("/mha/o") != std::string::npos ||
         name.find("/cross/o") != std::string::npos;
}

bool is_ffn_in(const std::string& name) {
  return name.find("/ffn/wi") != std::string::npos;
}

bool is_ffn_out(const std::string& name) {
  return name.find("/ffn/wo") != std::string::npos;
}

void pick(const sharding::PatternTable& table, ShardingPlan* plan,
          ir::GraphNodeId id, const char* pattern) {
  const auto& pats = table.at(id);
  for (std::size_t i = 0; i < pats.size(); ++i) {
    if (pats[i].name == pattern) {
      plan->choice[static_cast<std::size_t>(id)] = static_cast<int>(i);
      return;
    }
  }
  // Pattern not applicable (e.g. indivisible dims): keep the default.
}

ShardingPlan transformer_plan(const ir::TapGraph& tg, int num_shards,
                              bool shard_attention, bool shard_ffn) {
  ShardingPlan plan = sharding::default_plan(tg, num_shards);
  const sharding::PatternTable table(tg, plan.num_shards, plan.dp_replicas);
  for (const auto& n : tg.nodes()) {
    if (!n.has_weight()) continue;
    if (shard_attention && is_attention_proj_in(n.name)) {
      pick(table, &plan, n.id, "split_col");
    } else if (shard_attention && is_attention_proj_out(n.name)) {
      pick(table, &plan, n.id, "split_row");
    } else if (shard_ffn && is_ffn_in(n.name)) {
      pick(table, &plan, n.id, "split_col");
    } else if (shard_ffn && is_ffn_out(n.name)) {
      pick(table, &plan, n.id, "split_row");
    }
  }
  return plan;
}

}  // namespace

ShardingPlan data_parallel_plan(const ir::TapGraph& tg, int num_shards) {
  return sharding::default_plan(tg, num_shards);
}

ShardingPlan megatron_plan(const ir::TapGraph& tg, int num_shards) {
  return transformer_plan(tg, num_shards, true, true);
}

ShardingPlan mha_only_plan(const ir::TapGraph& tg, int num_shards) {
  return transformer_plan(tg, num_shards, true, false);
}

ShardingPlan ffn_only_plan(const ir::TapGraph& tg, int num_shards) {
  return transformer_plan(tg, num_shards, false, true);
}

ShardingPlan named_expert_plan(const std::string& name,
                               const ir::TapGraph& tg, int num_shards) {
  if (name == "DP") return data_parallel_plan(tg, num_shards);
  if (name == "Megatron") return megatron_plan(tg, num_shards);
  if (name == "MHA") return mha_only_plan(tg, num_shards);
  if (name == "FFN") return ffn_only_plan(tg, num_shards);
  TAP_CHECK(false) << "unknown expert plan '" << name << "'";
  return {};
}

}  // namespace tap::baselines
