#include "ir/graph_node.h"

#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace tap::ir {

void TapGraph::reserve(std::size_t num_nodes) {
  nodes_.reserve(num_nodes);
  consumers_.reserve(num_nodes);
  by_name_.reserve(num_nodes);
}

GraphNodeId TapGraph::add_node(GraphNode n) {
  TAP_CHECK(!n.name.empty());
  for (GraphNodeId in : n.inputs) {
    TAP_CHECK(in >= 0 && in < static_cast<GraphNodeId>(nodes_.size()))
        << "GraphNode '" << n.name << "' has unknown input " << in;
  }
  n.id = static_cast<GraphNodeId>(nodes_.size());
  TAP_CHECK(by_name_.try_emplace(n.name, n.id).second)
      << "duplicate GraphNode '" << n.name << "'";
  consumers_.emplace_back();
  for (GraphNodeId in : n.inputs)
    consumers_[static_cast<std::size_t>(in)].push_back(n.id);
  nodes_.push_back(std::move(n));
  finalized_ = false;
  return nodes_.back().id;
}

void TapGraph::finalize() {
  topo_order_ = topo_order();
  topo_pos_.assign(nodes_.size(), -1);
  for (std::size_t i = 0; i < topo_order_.size(); ++i)
    topo_pos_[static_cast<std::size_t>(topo_order_[i])] = static_cast<int>(i);
  op_work_.clear();
  if (source_ != nullptr) {
    op_work_.resize(source_->num_nodes());
    for (const GraphNode& n : nodes_)
      for (NodeId op : n.ops)
        op_work_[static_cast<std::size_t>(op)] =
            tap::op_work(source_->node(op), *source_);
  }
  route_bytes_.assign(nodes_.size(), RouteBytes{});
  for (const GraphNode& n : nodes_) {
    RouteBytes& b = route_bytes_[static_cast<std::size_t>(n.id)];
    b.output = n.output.size_bytes();
    if (!n.has_weight()) continue;
    TAP_CHECK(source_ != nullptr) << "weighted GraphNode without a source";
    const Node* primary = nullptr;
    for (NodeId wid : n.weight_ops) {
      const Node& w = source_->node(wid);
      if (!primary || w.weight_params() > primary->weight_params())
        primary = &w;
    }
    for (NodeId wid : n.weight_ops) {
      const Node& w = source_->node(wid);
      if (!w.trainable) continue;
      const std::int64_t bytes = w.weight->size_bytes();
      b.weight_grad += bytes;
      (&w == primary ? b.primary_grad : b.secondary_grad) += bytes;
    }
  }
  finalized_ = true;
}

std::size_t TapGraph::num_edges() const {
  std::size_t e = 0;
  for (const auto& n : nodes_) e += n.inputs.size();
  return e;
}

GraphNodeId TapGraph::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kInvalidGraphNode : it->second;
}

const std::vector<GraphNodeId>& TapGraph::consumers(GraphNodeId id) const {
  TAP_CHECK(id >= 0 && id < static_cast<GraphNodeId>(nodes_.size()));
  return consumers_[static_cast<std::size_t>(id)];
}

std::vector<GraphNodeId> TapGraph::roots() const {
  std::vector<GraphNodeId> out;
  for (const auto& n : nodes_)
    if (n.inputs.empty()) out.push_back(n.id);
  return out;
}

std::vector<GraphNodeId> TapGraph::leaves() const {
  std::vector<GraphNodeId> out;
  for (const auto& n : nodes_)
    if (consumers_[static_cast<std::size_t>(n.id)].empty())
      out.push_back(n.id);
  return out;
}

std::vector<GraphNodeId> TapGraph::topo_order() const {
  // Kahn's algorithm with `order` as its FIFO queue (Graph::topo_order).
  std::vector<int> indegree(nodes_.size());
  std::vector<GraphNodeId> order;
  order.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    indegree[static_cast<std::size_t>(n.id)] =
        static_cast<int>(n.inputs.size());
    if (n.inputs.empty()) order.push_back(n.id);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (GraphNodeId c : consumers_[static_cast<std::size_t>(order[head])])
      if (--indegree[static_cast<std::size_t>(c)] == 0) order.push_back(c);
  }
  TAP_CHECK_EQ(order.size(), nodes_.size()) << "TapGraph contains a cycle";
  return order;
}

const std::vector<GraphNodeId>& TapGraph::cached_topo_order() const {
  TAP_CHECK(finalized_) << "TapGraph::finalize() was not called";
  return topo_order_;
}

int TapGraph::topo_position(GraphNodeId id) const {
  TAP_CHECK(finalized_) << "TapGraph::finalize() was not called";
  TAP_CHECK(id >= 0 && id < static_cast<GraphNodeId>(nodes_.size()));
  return topo_pos_[static_cast<std::size_t>(id)];
}

std::vector<GraphNodeId> TapGraph::weight_nodes() const {
  std::vector<GraphNodeId> out;
  for (const auto& n : nodes_)
    if (n.has_weight()) out.push_back(n.id);
  return out;
}

std::string TapGraph::to_string(std::size_t max_nodes) const {
  std::ostringstream os;
  os << "TapGraph: " << nodes_.size() << " GraphNodes, " << num_edges()
     << " edges, " << weight_nodes().size() << " weighted\n";
  std::size_t shown = 0;
  for (const auto& n : nodes_) {
    if (shown++ >= max_nodes) {
      os << "  ... (" << nodes_.size() - max_nodes << " more)\n";
      break;
    }
    os << "  [" << n.id << "] '" << n.name << "' "
       << op_kind_name(n.primary_kind) << " ops=" << n.ops.size()
       << " params=" << util::human_count(static_cast<double>(n.params))
       << "\n";
  }
  return os.str();
}

}  // namespace tap::ir
