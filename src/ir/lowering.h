// Lowering a framework graph to the TAP IR (§4.2, step ① of Fig. 5):
//  1. trim auxiliary operators (initialization, checkpointing, summaries —
//     recovered later by graph rewriting);
//  2. cluster the remaining compute ops by name scope into GraphNodes;
//  3. keep the producer→consumer edges at cluster granularity.
//
// Clustering subtleties: the ops directly under a scope ("glue" like
// softmax/residual between weighted projections) can sit both upstream and
// downstream of a sibling sub-scope, which would create cluster-level
// cycles. We therefore split every scope cluster into its intra-cluster
// weakly-connected components, and as a final guarantee condense any
// remaining strongly-connected components — the resulting TapGraph is
// always a DAG.
#pragma once

#include "ir/graph_node.h"

namespace tap::ir {

struct LoweringOptions {
  /// true  = cluster ops by name scope (TAP's coarse IR);
  /// false = one GraphNode per op (the k×-finer IR the Alpa-like baseline
  ///         searches over; also used for the clustering ablation).
  bool cluster_by_scope = true;
};

struct LoweringStats {
  std::size_t original_nodes = 0;
  std::size_t trimmed_aux = 0;
  std::size_t graph_nodes = 0;
  std::size_t weight_variables = 0;  ///< weighted ops surviving the trim
};

/// Lowers `g` to the TAP IR. The returned TapGraph keeps no reference to
/// `g`, which may be freed as soon as this returns.
TapGraph lower(const Graph& g, const LoweringOptions& opts = {},
               LoweringStats* stats = nullptr);

/// Structural fingerprint of a single op, relative to `scope` (the op's
/// absolute position does not contribute). Exposed for tests.
std::uint64_t op_fingerprint(const Node& n, std::string_view scope);

}  // namespace tap::ir
