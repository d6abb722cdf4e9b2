#include "ir/graph_node.h"

#include <bit>
#include <cstring>
#include <functional>
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

std::uint64_t shape_hash(const TensorShape& s) {
  std::uint64_t h = mix(0, static_cast<std::uint64_t>(s.rank()));
  for (std::int64_t d : s.dims()) h = mix(h, static_cast<std::uint64_t>(d));
  return h;
}

/// What sharding::patterns_for reads of a weighted node: its primary
/// weight op's kind and interned weight shape, and its primary input
/// shape (nullptr for a root).
struct RowKey {
  OpKind kind;
  std::uint32_t weight_shape;
  const TensorShape* input;

  bool operator==(const RowKey& o) const {
    if (kind != o.kind || weight_shape != o.weight_shape) return false;
    if (input == nullptr || o.input == nullptr) return input == o.input;
    return *input == *o.input;
  }
  std::uint64_t hash() const {
    const std::uint64_t h =
        mix(mix(0, static_cast<std::uint64_t>(kind)), weight_shape);
    return input == nullptr ? mix(h, ~0ull) : mix(h, shape_hash(*input));
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
  TAP_CHECK(find(n.name) == kInvalidGraphNode)
      << "duplicate GraphNode '" << n.name << "'";
  by_name_.insert(n.name, n.id);
  consumers_.emplace_back();
  for (GraphNodeId in : n.inputs)
    consumers_[static_cast<std::size_t>(in)].push_back(n.id);
  nodes_.push_back(std::move(n));
  finalized_ = false;
  return nodes_.back().id;
}

void TapGraph::finalize(const Graph& source) {
  name_ = source.name();
  topo_order_ = topo_order();
  topo_pos_.assign(nodes_.size(), -1);
  for (std::size_t i = 0; i < topo_order_.size(); ++i)
    topo_pos_[static_cast<std::size_t>(topo_order_[i])] = static_cast<int>(i);
  const std::size_t num_ops = source.num_nodes();
  work_classes_.clear();
  op_class_.assign(num_ops, 0);
  node_op_classes_.clear();
  node_op_classes_.reserve(num_ops);
  node_ops_.assign(1, 0);
  Interner works(num_ops, &work_classes_, work_hash, same_work);
  std::size_t num_weights = 0;
  for (const GraphNode& n : nodes_) {
    for (NodeId op : n.ops) {
      const std::uint32_t c =
          works.intern(tap::op_work(source.node(op), source));
      op_class_[static_cast<std::size_t>(op)] = c;
      node_op_classes_.push_back(c);
    }
    node_ops_.push_back(node_op_classes_.size());
    num_weights += n.weight_ops.size();
  }

  weights_.clear();
  weights_.reserve(num_weights);
  node_weights_.assign(1, 0);
  weight_shapes_.clear();
  Interner shapes(num_weights, &weight_shapes_, shape_hash,
                  std::equal_to<TensorShape>());
  route_bytes_.assign(nodes_.size(), RouteBytes{});
  pattern_row_.assign(nodes_.size(), 0);
  row_nodes_.assign(1, kInvalidGraphNode);
  std::vector<RowKey> row_keys{RowKey{}};  // row 0: unweighted
  Interner rows(nodes_.size(), &row_keys,
                [](const RowKey& k) { return k.hash(); },
                [](const RowKey& a, const RowKey& b) { return a == b; });
  for (const GraphNode& n : nodes_) {
    RouteBytes& b = route_bytes_[static_cast<std::size_t>(n.id)];
    b.output = n.output.size_bytes();
    const std::size_t first = weights_.size();
    std::size_t primary = first;
    for (NodeId wid : n.weight_ops) {
      const Node& w = source.node(wid);
      if (w.weight_params() >
          source.node(n.weight_ops[primary - first]).weight_params())
        primary = weights_.size();
      weights_.push_back({w.weight->size_bytes(),
                          shapes.intern(w.weight->shape), w.kind,
                          w.trainable, false});
    }
    node_weights_.push_back(weights_.size());
    if (!n.has_weight()) continue;
    weights_[primary].primary = true;
    for (const WeightOp& w : weights(n.id)) {
      if (!w.trainable) continue;
      b.weight_grad += w.bytes;
      (w.primary ? b.primary_grad : b.secondary_grad) += w.bytes;
    }
    const TensorShape* input =
        n.inputs.empty() ? nullptr : &node(n.inputs.front()).output.shape;
    const WeightOp& p = weights_[primary];
    const std::uint32_t row = rows.intern(RowKey{p.kind, p.shape, input});
    if (row == row_nodes_.size()) row_nodes_.push_back(n.id);
    pattern_row_[static_cast<std::size_t>(n.id)] = row;
  }
  finalized_ = true;
}

const WeightOp& TapGraph::primary_weight(GraphNodeId id) const {
  for (const WeightOp& w : weights(id))
    if (w.primary) return w;
  TAP_CHECK(false) << "GraphNode " << id << " has no weight";
  return weights_.front();
}

std::size_t TapGraph::num_edges() const {
  std::size_t e = 0;
  for (const auto& n : nodes_) e += n.inputs.size();
  return e;
}

GraphNodeId TapGraph::find(std::string_view name) const {
  return by_name_.find(name, [this](GraphNodeId id) -> std::string_view {
    return nodes_[static_cast<std::size_t>(id)].name;
  });
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
