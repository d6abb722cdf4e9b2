#include "graph/graph.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace tap {

NodeId Graph::add_node(Node node) {
  TAP_CHECK(!node.name.empty()) << "node name must be non-empty";
  TAP_CHECK(find(node.name) == kInvalidNode)
      << "duplicate node name '" << node.name << "'";
  for (NodeId in : node.inputs) {
    TAP_CHECK(in >= 0 && in < static_cast<NodeId>(nodes_.size()))
        << "node '" << node.name << "' references unknown input " << in;
  }
  node.id = static_cast<NodeId>(nodes_.size());
  by_name_.insert(node.name, node.id);
  consumers_.emplace_back();
  for (NodeId in : node.inputs)
    consumers_[static_cast<std::size_t>(in)].push_back(node.id);
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

NodeId Graph::add(std::string name, OpKind kind, std::vector<NodeId> inputs,
                  TensorSpec output) {
  Node n;
  n.name = std::move(name);
  n.kind = kind;
  n.inputs = std::move(inputs);
  n.output = std::move(output);
  return add_node(std::move(n));
}

NodeId Graph::find(std::string_view name) const {
  return by_name_.find(name, [this](NodeId id) -> std::string_view {
    return nodes_[static_cast<std::size_t>(id)].name;
  });
}

const std::vector<NodeId>& Graph::consumers(NodeId id) const {
  TAP_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()));
  return consumers_[static_cast<std::size_t>(id)];
}

std::vector<NodeId> Graph::roots() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_)
    if (n.inputs.empty()) out.push_back(n.id);
  return out;
}

std::vector<NodeId> Graph::leaves() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_)
    if (consumers_[static_cast<std::size_t>(n.id)].empty()) out.push_back(n.id);
  return out;
}

std::vector<NodeId> Graph::topo_order() const {
  // Kahn's algorithm with `order` as its FIFO queue: ready nodes are
  // appended, and `head` walks them in the order they became ready.
  std::vector<int> indegree(nodes_.size(), 0);
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    indegree[static_cast<std::size_t>(n.id)] =
        static_cast<int>(n.inputs.size());
    if (n.inputs.empty()) order.push_back(n.id);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (NodeId c : consumers_[static_cast<std::size_t>(order[head])]) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) order.push_back(c);
    }
  }
  TAP_CHECK_EQ(order.size(), nodes_.size()) << "graph contains a cycle";
  return order;
}

void Graph::validate() const {
  for (const Node& n : nodes_) {
    TAP_CHECK(n.output.shape.rank() == 0 || n.output.shape.valid())
        << "node '" << n.name << "' has invalid output shape "
        << n.output.shape.to_string();
    if (n.weight) {
      TAP_CHECK(n.weight->shape.valid())
          << "node '" << n.name << "' has invalid weight shape";
      TAP_CHECK(may_have_weight(n.kind))
          << "op kind " << op_kind_name(n.kind) << " ('" << n.name
          << "') may not carry a weight";
    }
  }
  (void)topo_order();  // throws on cycles
}

std::vector<NodeId> Graph::weight_nodes() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_)
    if (n.has_weight()) out.push_back(n.id);
  return out;
}

std::int64_t Graph::total_params() const {
  std::int64_t total = 0;
  for (const Node& n : nodes_)
    if (n.has_weight() && n.trainable) total += n.weight_params();
  return total;
}

std::int64_t Graph::total_params_all() const {
  std::int64_t total = 0;
  for (const Node& n : nodes_) total += n.weight_params();
  return total;
}

std::size_t Graph::num_edges() const {
  std::size_t e = 0;
  for (const Node& n : nodes_) e += n.inputs.size();
  return e;
}

std::size_t Graph::max_name_depth() const {
  std::size_t d = 0;
  for (const Node& n : nodes_) d = std::max(d, util::path_depth(n.name));
  return d;
}

std::string Graph::to_string(std::size_t max_nodes) const {
  std::ostringstream os;
  os << "Graph '" << name_ << "': " << nodes_.size() << " nodes, "
     << num_edges() << " edges, " << util::human_count(double(total_params()))
     << " trainable params\n";
  std::size_t shown = 0;
  for (const Node& n : nodes_) {
    if (shown++ >= max_nodes) {
      os << "  ... (" << nodes_.size() - max_nodes << " more)\n";
      break;
    }
    os << "  [" << n.id << "] " << op_kind_name(n.kind) << " '" << n.name
       << "' " << n.output.to_string();
    if (n.weight) os << " w=" << n.weight->to_string();
    os << "\n";
  }
  return os.str();
}

}  // namespace tap
