// Graph rewriting (§4.7, step ⑤ of Fig. 5): materialize the chosen plan as
// a new framework graph — the SPMD per-device program.
//
// The rewritten graph:
//   * keeps every compute op (original order restored via the source
//     topological order) with sharding annotations ("shard_axis",
//     "weight_shard_axis", "group" attrs — logical shapes are preserved,
//     GSPMD-annotation style, so all shape invariants keep validating);
//   * inserts forward collective nodes: the pattern collectives (partial-sum
//     AllReduce after a row-split MatMul, AllToAll around expert banks) and
//     the layout-conversion collectives the router recorded on edges;
//   * inserts one gradient-synchronization AllReduce node per replicated
//     trainable weight (the packing candidates of §4.7.1);
//   * restores the auxiliary operators that lowering trimmed (§4.2).
#pragma once

#include <string>
#include <vector>

#include "sharding/routing.h"

namespace tap::rewrite {

/// One gradient tensor that must be synchronized across the group.
struct GradientTensor {
  std::string name;  ///< weight op name
  std::int64_t bytes = 0;
};

struct RewriteResult {
  Graph parallel;
  std::size_t comm_nodes = 0;
  std::size_t aux_restored = 0;
  /// Replicated trainable weights needing a gradient AllReduce, in
  /// backward (reverse-topological) order — the input to gradient packing.
  std::vector<GradientTensor> gradients;
};

/// Rewrites `src` (the graph `tg` was lowered from) according to a valid
/// routed plan, at the mesh it was routed for. `restore_aux` re-adds the
/// trimmed auxiliary ops.
RewriteResult rewrite_graph(const Graph& src, const ir::TapGraph& tg,
                            const sharding::RoutedPlan& routed,
                            bool restore_aux = true);

}  // namespace tap::rewrite
