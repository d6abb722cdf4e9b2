// The TAP intermediate representation (§4.2).
//
// A GraphNode clusters the operators under one name scope — "a layer or a
// logical group of operators, which is the basic unit for deriving the
// sharding schedule". The TapGraph keeps the directed edges of the original
// DAG at cluster granularity. Lowering a T5-large training graph shrinks
// thousands of framework ops to a few hundred GraphNodes, of which the
// weighted ones are the sharding decision points.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/op_work.h"
#include "util/check.h"
#include "util/name_index.h"

namespace tap::ir {

using GraphNodeId = std::int32_t;
inline constexpr GraphNodeId kInvalidGraphNode = -1;

struct GraphNode {
  GraphNodeId id = kInvalidGraphNode;
  /// Cluster name = the shared name scope of its member ops.
  std::string name;
  /// Member ops of the source graph, in topological order.
  std::vector<NodeId> ops;
  /// Subset of `ops` that carry a weight tensor.
  std::vector<NodeId> weight_ops;
  /// The op kind that drives sharding-pattern lookup: the weighted op with
  /// the most parameters, else the "heaviest" compute op in the cluster.
  OpKind primary_kind = OpKind::kNoOp;
  /// Trainable parameters owned by this cluster.
  std::int64_t params = 0;
  /// Spec of the tensor this cluster exposes to downstream clusters.
  TensorSpec output;
  /// Structural fingerprint: op kinds, scope-relative op names, weight
  /// shapes and attributes — but NOT the absolute scope, so the same layer
  /// at a different depth fingerprints identically.
  std::uint64_t fingerprint = 0;
  /// Producer clusters (deduplicated, in first-seen order).
  std::vector<GraphNodeId> inputs;

  bool has_weight() const { return !weight_ops.empty(); }
};

/// The byte counts the router reads per node, stored by
/// TapGraph::finalize() so a route step reads them instead of multiplying
/// out shapes and rescanning weight_ops.
struct RouteBytes {
  /// output.size_bytes().
  std::int64_t output = 0;
  /// Trainable weight bytes of a weighted node: all of its weight ops,
  /// every one but the primary (the weight op with the most parameters,
  /// the first of equals), and the primary alone. Zero when unweighted.
  std::int64_t weight_grad = 0;
  std::int64_t secondary_grad = 0;
  std::int64_t primary_grad = 0;
};

/// What the planner reads of one weight op of a GraphNode, stored by
/// TapGraph::finalize() so no reader needs the source graph.
struct WeightOp {
  /// weight->size_bytes().
  std::int64_t bytes = 0;
  /// The weight's shape, as an index into TapGraph::weight_shape (equal
  /// shapes share one index).
  std::uint32_t shape = 0;
  OpKind kind = OpKind::kNoOp;
  bool trainable = true;
  /// The weight op with the most parameters, the first of equals: the
  /// subject of the node's sharding pattern.
  bool primary = false;
};

/// The TAP IR of one model. It is self-contained: finalize() copies what
/// the planner, cost model, simulator and report read of the source ops,
/// so the framework graph can be freed once ir::lower returns.
class TapGraph {
 public:
  TapGraph() = default;

  /// Capacity for `num_nodes` nodes (an optional hint before add_node).
  void reserve(std::size_t num_nodes);

  /// Appends a node, assigning its id. Inputs must already exist. The
  /// consumer lists grow with every add; the topological order is stale
  /// until the next finalize().
  GraphNodeId add_node(GraphNode n);

  /// Computes the topological order and positions, the op_work of every
  /// member op and its work class, every node's weight ops, route_bytes
  /// and pattern row, and keeps `source`'s name, once the graph is
  /// complete (ir::lower calls it last with the graph it lowered). Every
  /// const accessor is then a plain read, so a finished graph can be
  /// shared between threads. Nothing refers to `source` afterwards.
  void finalize(const Graph& source);

  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const GraphNode& node(GraphNodeId id) const {
    TAP_CHECK(id >= 0 && id < static_cast<GraphNodeId>(nodes_.size()));
    return nodes_[static_cast<std::size_t>(id)];
  }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const;

  GraphNodeId find(std::string_view name) const;

  const std::vector<GraphNodeId>& consumers(GraphNodeId id) const;
  std::vector<GraphNodeId> roots() const;
  std::vector<GraphNodeId> leaves() const;
  std::vector<GraphNodeId> topo_order() const;

  /// topo_order() as computed by finalize(), and each node's index in
  /// it. The planner routes thousands of candidate subgraphs; recomputing
  /// Kahn per candidate would make the search linear in model size again.
  /// The graph must be finalized.
  const std::vector<GraphNodeId>& cached_topo_order() const;
  int topo_position(GraphNodeId id) const;

  /// op_work(source op, source graph) of a member op, as computed by
  /// finalize(): mesh-independent, so the per-mesh backward-window terms
  /// read it instead of recounting FLOPs and bytes at every mesh. The
  /// graph must be finalized.
  const OpWork& op_work(NodeId op) const {
    TAP_CHECK(op >= 0 && static_cast<std::size_t>(op) < op_class_.size());
    return work_classes_[op_class_[static_cast<std::size_t>(op)]];
  }

  /// The work classes of node `id`'s member ops, in `ops` order, as
  /// computed by finalize(). Member ops share a class exactly when their
  /// op_work is equal (kind, FLOP bits and bytes), so a per-mesh function
  /// of the work is computed once per class; class_work(c) is that
  /// op_work. Classes are numbered from 0 in first-seen op order.
  std::span<const std::uint32_t> op_classes(GraphNodeId id) const {
    TAP_CHECK(id >= 0 && static_cast<std::size_t>(id) + 1 < node_ops_.size());
    const std::size_t i = static_cast<std::size_t>(id);
    return {node_op_classes_.data() + node_ops_[i],
            node_op_classes_.data() + node_ops_[i + 1]};
  }
  std::size_t num_work_classes() const { return work_classes_.size(); }
  const OpWork& class_work(std::uint32_t c) const {
    TAP_CHECK_LT(c, work_classes_.size());
    return work_classes_[c];
  }

  /// The weight ops of node `id`, in `weight_ops` order, as computed by
  /// finalize(); empty when unweighted.
  std::span<const WeightOp> weights(GraphNodeId id) const {
    TAP_CHECK(id >= 0 &&
              static_cast<std::size_t>(id) + 1 < node_weights_.size());
    const std::size_t i = static_cast<std::size_t>(id);
    return {weights_.data() + node_weights_[i],
            weights_.data() + node_weights_[i + 1]};
  }
  /// The primary weight op of weighted node `id`.
  const WeightOp& primary_weight(GraphNodeId id) const;
  const TensorShape& weight_shape(const WeightOp& w) const {
    TAP_CHECK_LT(w.shape, weight_shapes_.size());
    return weight_shapes_[w.shape];
  }

  /// The pattern row of node `id`, as computed by finalize(): 0 for
  /// every unweighted node, else one row per distinct value of what
  /// sharding::patterns_for reads of a weighted node (its primary weight
  /// op's kind and weight shape, and its primary input shape), numbered
  /// from 1 in node order. Nodes of one row have equal pattern lists at
  /// every mesh, so a pattern table builds one list per row.
  const std::vector<std::uint32_t>& pattern_rows() const {
    return pattern_row_;
  }
  std::size_t num_pattern_rows() const { return row_nodes_.size(); }
  /// The first node of row `row` (kInvalidGraphNode for row 0).
  GraphNodeId pattern_row_node(std::uint32_t row) const {
    TAP_CHECK_LT(row, row_nodes_.size());
    return row_nodes_[row];
  }

  /// route_bytes of node `id`, as computed by finalize(). The graph must
  /// be finalized.
  const RouteBytes& route_bytes(GraphNodeId id) const {
    TAP_CHECK(id >= 0 &&
              static_cast<std::size_t>(id) < route_bytes_.size());
    return route_bytes_[static_cast<std::size_t>(id)];
  }

  /// Clusters carrying at least one weight tensor.
  std::vector<GraphNodeId> weight_nodes() const;

  /// The name of the framework graph this IR was lowered from.
  const std::string& name() const { return name_; }
  /// Ops in that graph (trimmed ones included): code that takes the
  /// source graph again, like the rewriter, checks it against this.
  std::size_t num_source_ops() const { return op_class_.size(); }

  std::string to_string(std::size_t max_nodes = 50) const;

 private:
  std::string name_;
  std::vector<GraphNode> nodes_;
  util::NameIndex by_name_;  ///< names read back from nodes_
  std::vector<std::vector<GraphNodeId>> consumers_;
  std::vector<GraphNodeId> topo_order_;  ///< set by finalize()
  std::vector<int> topo_pos_;
  // Set by finalize(). Node i's op classes are node_op_classes_ from
  // node_ops_[i] to node_ops_[i + 1], and its weight ops weights_ from
  // node_weights_[i] to node_weights_[i + 1].
  std::vector<OpWork> work_classes_;            ///< per work class
  std::vector<std::uint32_t> op_class_;         ///< per source NodeId
  std::vector<std::uint32_t> node_op_classes_;  ///< in node order
  std::vector<std::size_t> node_ops_;           ///< per node, and end
  std::vector<WeightOp> weights_;               ///< in node order
  std::vector<std::size_t> node_weights_;       ///< per node, and end
  std::vector<TensorShape> weight_shapes_;      ///< per distinct shape
  std::vector<RouteBytes> route_bytes_;         ///< per node
  std::vector<std::uint32_t> pattern_row_;      ///< per node
  std::vector<GraphNodeId> row_nodes_;          ///< per pattern row
  bool finalized_ = false;
};

}  // namespace tap::ir
