// ShardingPattern: one legal way to distribute a weighted GraphNode over
// the device group, expressed in the SRC vocabulary (§3.4, §4.4).
//
// A pattern fixes the layout of the node's primary weight tensor, the
// layout it requires of its primary input activation, the layout it
// produces, and the collectives required to keep the math equivalent:
//   * forward_comm  — applied to the op output right after compute (e.g.
//     the AllReduce that sums row-split MatMul partials, Fig. 4);
//   * backward_comm — applied during the backward pass, either to the
//     weight gradients (data parallelism's gradient AllReduce, which can
//     overlap with compute, §4.6) or to the input gradients (the mirror of
//     a column split).
//
// PatternTable is the catalog: one row per GraphNode of every applicable
// pattern at one mesh, pre-filtered for divisibility over `num_shards`.
// Every reader of a plan's pattern indices — router, cost model,
// simulator, rewriter, serialization, reports — indexes the table of the
// plan's own mesh. Replicate-only ops (LayerNorm & friends) have exactly
// one option, which is how a T5 block with 8 weighted clusters still
// enumerates 3^6 = 729 plans, matching §6.3.1.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/graph_node.h"
#include "sharding/shard_spec.h"

namespace tap::sharding {

/// What the backward collective is applied to.
enum class BwdSubject : std::uint8_t { kNone, kWeightGrad, kInputGrad };

struct ShardingPattern {
  std::string name;
  /// Required layout of the primary input activation; nullopt = follow
  /// (any layout is accepted and propagated).
  std::optional<ShardSpec> input;
  /// Layout of the primary weight tensor (replicate when no weight).
  ShardSpec weight = ShardSpec::replicate();
  /// Produced output layout; nullopt = same as the (possibly converted)
  /// input layout.
  std::optional<ShardSpec> output;
  Collective forward_comm = Collective::kNone;
  /// Multiplier on the forward collective (expert-parallel MoE needs the
  /// dispatch *and* combine AllToAll, hence 2).
  int forward_comm_count = 1;
  Collective backward_comm = Collective::kNone;
  BwdSubject backward_subject = BwdSubject::kNone;

  /// True when this pattern leaves every weight replicated (pure DP /
  /// replica behaviour).
  bool replicates_weight() const { return weight.is_replicate(); }

  std::string to_string() const;
};

/// The split-compute rule: a cluster computes on 1/(dp·tp) of its work
/// when its output layout is split or its pattern splits its weight, and
/// on 1/dp otherwise.
inline bool computes_split(const ShardingPattern& pattern,
                           const ShardSpec& output) {
  return output.is_split() || pattern.weight.is_split();
}

/// All patterns applicable to GraphNode `id` over a tensor-parallel group
/// of `num_shards` devices, with `dp_replicas` data-parallel replicas
/// around it (batch-splitting patterns need the batch to divide across
/// the whole dp x tp mesh). Weighted nodes get the catalog for their
/// primary kind filtered by divisibility; unweighted (glue) nodes get a
/// single "follow" pattern.
///
/// This is the per-node reference derivation that PatternTable's interned
/// rows are tested against; it rebuilds the node's list on every call.
/// Code reads the catalog through a PatternTable, never through this.
std::vector<ShardingPattern> patterns_for(const ir::TapGraph& tg,
                                          ir::GraphNodeId id, int num_shards,
                                          int dp_replicas);

/// The "follow" pattern used for glue nodes.
ShardingPattern follow_pattern();

/// Precomputed pattern lists for every GraphNode at a fixed group size.
/// The planner routes tens of thousands of candidate subgraphs; building
/// the (string-heavy) pattern vectors once instead of per candidate keeps
/// the search sub-linear in practice. Rows are the graph's pattern rows
/// (TapGraph::pattern_rows, interned once per lowering): every unweighted
/// node shares one follow row, and weighted nodes share a row when
/// everything patterns_for reads of them is equal, so a mesh builds one
/// list per distinct layer and copies the node-to-row index.
class PatternTable {
 public:
  PatternTable(const ir::TapGraph& tg, int num_shards, int dp_replicas = 1);

  /// == patterns_for(tg, id, num_shards(), dp_replicas()).
  const std::vector<ShardingPattern>& at(ir::GraphNodeId id) const {
    return rows_[row_of_[static_cast<std::size_t>(id)]];
  }
  int num_shards() const { return num_shards_; }
  int dp_replicas() const { return dp_replicas_; }
  /// Distinct rows (the follow row included).
  std::size_t num_rows() const { return rows_.size(); }

 private:
  int num_shards_;
  int dp_replicas_;
  std::vector<std::vector<ShardingPattern>> rows_;
  std::vector<std::uint32_t> row_of_;  ///< per GraphNodeId
};

/// True when `kind` computes along the last axis and therefore cannot
/// accept an input split on it (softmax/layernorm/loss); the router inserts
/// an AllGather when such a layout arrives.
bool rejects_last_axis_split(OpKind kind);

}  // namespace tap::sharding
