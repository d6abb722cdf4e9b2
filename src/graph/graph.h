// Graph: the tap dataflow DAG — the substrate every other subsystem
// consumes. Mirrors what TAP reads out of a TensorFlow GraphDef: operators
// with hierarchical names, positional input edges, static shapes, optional
// weight tensors, plus auxiliary bookkeeping ops.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/node.h"
#include "util/check.h"
#include "util/name_index.h"

namespace tap {

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Adds a node; `node.id` is assigned by the graph. Name must be unique
  /// and all inputs must refer to existing nodes. Returns the new id.
  NodeId add_node(Node node);

  /// Convenience overload building the Node in place.
  NodeId add(std::string name, OpKind kind, std::vector<NodeId> inputs,
             TensorSpec output);

  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(NodeId id) const {
    TAP_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()))
        << "node id " << id << " out of range";
    return nodes_[static_cast<std::size_t>(id)];
  }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Id of the node named `name`, or kInvalidNode.
  NodeId find(std::string_view name) const;
  bool contains(std::string_view name) const {
    return find(name) != kInvalidNode;
  }

  /// Consumer adjacency (node -> nodes that read its output), grown by
  /// add_node; const accessors never write, so concurrent reads are safe.
  const std::vector<NodeId>& consumers(NodeId id) const;

  /// Nodes with no inputs (Placeholders/Consts/roots).
  std::vector<NodeId> roots() const;
  /// Nodes with no consumers.
  std::vector<NodeId> leaves() const;

  /// Kahn topological order. Throws CheckError if the graph has a cycle.
  std::vector<NodeId> topo_order() const;

  /// Structural validation: unique names, inputs in range, acyclic,
  /// valid shapes. Throws CheckError describing the first violation.
  void validate() const;

  /// All nodes carrying a weight tensor.
  std::vector<NodeId> weight_nodes() const;

  /// Total parameter count over trainable weights.
  std::int64_t total_params() const;
  /// Total parameter count including frozen weights.
  std::int64_t total_params_all() const;

  /// Number of edges (sum of input arities).
  std::size_t num_edges() const;

  /// Maximum name-scope depth over all nodes.
  std::size_t max_name_depth() const;

  std::string to_string(std::size_t max_nodes = 50) const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  util::NameIndex by_name_;  ///< names read back from nodes_
  std::vector<std::vector<NodeId>> consumers_;
};

}  // namespace tap
