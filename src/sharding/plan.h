// ShardingPlan: a complete pattern assignment for a TapGraph (§4.2:
// "a set of subgraphs with sharding patterns connecting them").
//
// The plan stores one pattern index per GraphNode, indexing into the
// node's row of the PatternTable of the plan's own mesh. Glue nodes always
// use index 0 (the follow pattern).
// Plans are produced per subgraph family by the enumerator and replayed
// onto every instance with apply_family_choice — that replay is what makes
// the search cost independent of model depth.
#pragma once

#include <string>
#include <vector>

#include "pruning/prune.h"
#include "sharding/pattern.h"

namespace tap::sharding {

struct ShardingPlan {
  /// Tensor-parallel group size (the mesh's inner dimension).
  int num_shards = 1;
  /// Data-parallel replicas around the tp group (mesh outer dimension).
  int dp_replicas = 1;
  /// Pattern index per GraphNodeId.
  std::vector<int> choice;

  MeshSpec mesh() const { return {dp_replicas, num_shards}; }
  int world() const { return num_shards * dp_replicas; }
  bool empty() const { return choice.empty(); }
};

/// Plan with every node at pattern 0 — data parallelism wherever the batch
/// divides, otherwise replication (the universal fallback).
ShardingPlan default_plan(const ir::TapGraph& tg, int num_shards,
                          int dp_replicas = 1);

/// Replays `member_choice` (aligned with family.member_nodes) onto every
/// instance of the family.
void apply_family_choice(const pruning::SubgraphFamily& family,
                         const std::vector<int>& member_choice,
                         ShardingPlan* plan);

/// Human-readable summary: pattern name per weighted GraphNode.
std::string describe_plan(const ir::TapGraph& tg, const ShardingPlan& plan,
                          std::size_t max_nodes = 64);

}  // namespace tap::sharding
