#include "ir/graph_node.h"

#include <bit>
#include <cstring>
#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace tap::ir {

namespace {

/// A cheap multiplicative mix: equal hashes are checked with equality.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x9e3779b97f4a7c15ull;
}

std::uint64_t work_hash(const OpWork& w) {
  std::uint64_t flops;
  std::memcpy(&flops, &w.flops, sizeof flops);
  return mix(mix(mix(0, static_cast<std::uint64_t>(w.kind)), flops),
             static_cast<std::uint64_t>(w.bytes));
}

/// Equal work, FLOPs compared bit for bit: every function of it is equal.
bool same_work(const OpWork& a, const OpWork& b) {
  return a.kind == b.kind && a.bytes == b.bytes &&
         std::memcmp(&a.flops, &b.flops, sizeof a.flops) == 0;
}

/// What sharding::patterns_for reads of a weighted node: its primary
/// weight op and its primary input shape (nullptr for a root).
struct RowKey {
  const Node* weight_op;
  const TensorShape* input;

  bool operator==(const RowKey& o) const {
    if (weight_op->kind != o.weight_op->kind ||
        !(weight_op->weight->shape == o.weight_op->weight->shape))
      return false;
    if (input == nullptr || o.input == nullptr) return input == o.input;
    return *input == *o.input;
  }
  std::uint64_t hash() const {
    std::uint64_t h = mix(0, static_cast<std::uint64_t>(weight_op->kind));
    for (std::int64_t d : weight_op->weight->shape.dims())
      h = mix(h, static_cast<std::uint64_t>(d));
    if (input == nullptr) return mix(h, ~0ull);
    for (std::int64_t d : input->dims())
      h = mix(h, static_cast<std::uint64_t>(d));
    return mix(h, static_cast<std::uint64_t>(input->rank()));
  }
};

/// Assigns each value the class of the first equal value seen: an
/// open-addressing table of class ids over `classes`, sized for `n`
/// values.
template <class T, class Hash, class Eq>
class Interner {
 public:
  Interner(std::size_t n, std::vector<T>* classes, Hash hash, Eq eq)
      : slots_(std::bit_ceil(2 * n + 2), 0),
        classes_(classes),
        hash_(hash),
        eq_(eq) {}

  std::uint32_t intern(const T& value) {
    const std::size_t mask = slots_.size() - 1;
    // The mixes leave equal low bits for values that differ only in high
    // ones (shapes, byte counts, FLOP doubles), so fold the high half in.
    const std::uint64_t h = hash_(value);
    for (std::size_t i = (h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        classes_->push_back(value);
        slots_[i] = static_cast<std::uint32_t>(classes_->size());
        return slots_[i] - 1;
      }
      if (eq_((*classes_)[slots_[i] - 1], value)) return slots_[i] - 1;
    }
  }

 private:
  std::vector<std::uint32_t> slots_;  ///< class + 1, 0 = empty
  std::vector<T>* classes_;
  Hash hash_;
  Eq eq_;
};

}  // namespace

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
  work_classes_.clear();
  op_class_.clear();
  node_op_classes_.clear();
  node_ops_.assign(1, 0);
  if (source_ != nullptr) {
    op_class_.resize(source_->num_nodes());
    node_op_classes_.reserve(source_->num_nodes());
    Interner works(source_->num_nodes(), &work_classes_, work_hash, same_work);
    for (const GraphNode& n : nodes_) {
      for (NodeId op : n.ops) {
        const std::uint32_t c =
            works.intern(tap::op_work(source_->node(op), *source_));
        op_class_[static_cast<std::size_t>(op)] = c;
        node_op_classes_.push_back(c);
      }
      node_ops_.push_back(node_op_classes_.size());
    }
  } else {
    node_ops_.resize(nodes_.size() + 1, 0);
  }
  route_bytes_.assign(nodes_.size(), RouteBytes{});
  pattern_row_.assign(nodes_.size(), 0);
  row_nodes_.assign(1, kInvalidGraphNode);
  std::vector<RowKey> row_keys{RowKey{nullptr, nullptr}};  // row 0: unweighted
  Interner rows(nodes_.size(), &row_keys,
                [](const RowKey& k) { return k.hash(); },
                [](const RowKey& a, const RowKey& b) { return a == b; });
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
    const TensorShape* input =
        n.inputs.empty() ? nullptr : &node(n.inputs.front()).output.shape;
    const std::uint32_t row = rows.intern(RowKey{primary, input});
    if (row == row_nodes_.size()) row_nodes_.push_back(n.id);
    pattern_row_[static_cast<std::size_t>(n.id)] = row;
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
