// FlexFlow-like MCMC baseline (§5.1.1, Table 2 row "FlexFlow").
//
// Randomized Markov-chain Monte Carlo over the op-level search space: each
// trial mutates one operator's sharding choice, re-evaluates the full
// graph (O(V+E) cost query, like FlexFlow's DFS simulation), and accepts
// by the Metropolis criterion. No search-space reduction of any kind —
// work is B × O(V+E).
#pragma once

#include "baselines/alpa_like.h"

namespace tap::baselines {

struct FlexFlowOptions {
  int num_shards = 8;
  int trials = 200;  ///< B, the MCMC budget
  double temperature = 0.25;
  std::uint64_t seed = 99;
};

/// Runs the MCMC search over `g`. Returns an op-level plan (re-lower with
/// cluster_by_scope=false to use it).
BaselineSearchResult flexflow_like_search(const Graph& g,
                                          const cost::ClusterSpec& cluster,
                                          const FlexFlowOptions& opts);

}  // namespace tap::baselines
