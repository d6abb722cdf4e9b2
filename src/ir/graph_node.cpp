#include "ir/graph_node.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>

#include "util/check.h"
#include "util/interner.h"
#include "util/strings.h"

namespace tap::ir {

namespace {

using util::intern_mix;
using util::Interner;

std::uint64_t work_hash(const OpWork& w) {
  std::uint64_t flops;
  std::memcpy(&flops, &w.flops, sizeof flops);
  const std::uint64_t h =
      intern_mix(intern_mix(0, static_cast<std::uint64_t>(w.kind)), flops);
  return intern_mix(h, static_cast<std::uint64_t>(w.bytes));
}

/// Equal work, FLOPs compared bit for bit: every function of it is equal.
bool same_work(const OpWork& a, const OpWork& b) {
  return a.kind == b.kind && a.bytes == b.bytes &&
         std::memcmp(&a.flops, &b.flops, sizeof a.flops) == 0;
}

std::uint64_t shape_hash(const TensorShape& s) {
  std::uint64_t h = intern_mix(0, static_cast<std::uint64_t>(s.rank()));
  for (std::int64_t d : s.dims())
    h = intern_mix(h, static_cast<std::uint64_t>(d));
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
    const std::uint64_t h = intern_mix(
        intern_mix(0, static_cast<std::uint64_t>(kind)), weight_shape);
    return input == nullptr ? intern_mix(h, ~0ull)
                            : intern_mix(h, shape_hash(*input));
  }
};

}  // namespace

void TapGraph::reserve(std::size_t num_nodes) {
  nodes_.reserve(num_nodes);
}

GraphNodeId TapGraph::add_node(GraphNode n) {
  TAP_CHECK(!n.name.empty());
  for (GraphNodeId in : n.inputs) {
    TAP_CHECK(in >= 0 && in < static_cast<GraphNodeId>(nodes_.size()))
        << "GraphNode '" << n.name << "' has unknown input " << in;
  }
  n.id = static_cast<GraphNodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  consumer_begin_.clear();
  finalized_ = false;
  return nodes_.back().id;
}

void TapGraph::finalize(const Graph& source) {
  name_ = source.name();
  consumer_begin_.assign(nodes_.size() + 1, 0);
  for (const GraphNode& n : nodes_)
    for (GraphNodeId in : n.inputs)
      ++consumer_begin_[static_cast<std::size_t>(in) + 1];
  for (std::size_t i = 1; i < consumer_begin_.size(); ++i)
    consumer_begin_[i] += consumer_begin_[i - 1];
  consumers_.resize(consumer_begin_.back());
  {
    std::vector<std::size_t> fill(consumer_begin_.begin(),
                                  consumer_begin_.end() - 1);
    for (const GraphNode& n : nodes_)
      for (GraphNodeId in : n.inputs)
        consumers_[fill[static_cast<std::size_t>(in)]++] = n.id;
  }
  topo_order_ = topo_order();
  topo_pos_.assign(nodes_.size(), -1);
  for (std::size_t i = 0; i < topo_order_.size(); ++i)
    topo_pos_[static_cast<std::size_t>(topo_order_[i])] = static_cast<int>(i);
  build_scopes();
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
    std::size_t primary = weights_.size();
    std::int64_t primary_params = -1;
    for (NodeId wid : n.weight_ops) {
      const Node& w = source.node(wid);
      if (w.weight_params() > primary_params) {
        primary = weights_.size();
        primary_params = w.weight_params();
      }
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

void TapGraph::build_scopes() {
  scopes_.clear();
  node_scope_.assign(nodes_.size(), kNoScope);
  // Intern each node name and, the first time a scope is seen, its
  // parents up to the first known one. Keys are views into the names.
  std::vector<std::string_view> names;
  scope_index_ = util::NameIndex();
  scope_index_.reserve(2 * nodes_.size());
  const auto name_of = [&names](ScopeId s) {
    return names[static_cast<std::size_t>(s)];
  };
  std::vector<ScopeId> chain;  // the new scopes, deepest first
  for (const GraphNode& n : nodes_) {
    chain.clear();
    std::string_view str = n.name;
    ScopeId s = kNoScope;
    while (true) {
      const auto next = static_cast<ScopeId>(scopes_.size());
      s = scope_index_.find_or_insert(str, next, name_of);
      if (s != next) break;
      names.push_back(str);
      scopes_.push_back({kNoScope, 0, 0, n.id,
                         static_cast<std::uint32_t>(str.size())});
      chain.push_back(s);
      const std::size_t slash = str.rfind('/');
      if (slash == std::string_view::npos) {
        s = kNoScope;
        break;
      }
      str = str.substr(0, slash);
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      Scope& sc = scopes_[static_cast<std::size_t>(*it)];
      sc.parent = s;
      sc.depth =
          s == kNoScope ? 1 : scopes_[static_cast<std::size_t>(s)].depth + 1;
      s = *it;
    }
    Scope& own = scopes_[static_cast<std::size_t>(s)];
    TAP_CHECK(chain.size() > 0 ||
              own.length != nodes_[static_cast<std::size_t>(own.node)]
                                .name.size())
        << "duplicate GraphNode '" << n.name << "'";
    node_scope_[static_cast<std::size_t>(n.id)] = s;
    own.node = n.id;
  }

  // Rank the scopes in lexicographic order of their strings.
  std::vector<std::pair<std::string_view, ScopeId>> by_name;
  by_name.reserve(names.size());
  for (std::size_t s = 0; s < names.size(); ++s)
    by_name.emplace_back(names[s], static_cast<ScopeId>(s));
  std::sort(by_name.begin(), by_name.end());
  for (std::size_t r = 0; r < by_name.size(); ++r)
    scopes_[static_cast<std::size_t>(by_name[r].second)].rank =
        static_cast<std::uint32_t>(r);
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
  if (nodes_.empty()) return kInvalidGraphNode;
  TAP_CHECK(finalized_) << "TapGraph::finalize() was not called";
  const ScopeId s = scope_index_.find(
      name, [this](ScopeId id) { return scope_name(id); });
  if (s == kNoScope) return kInvalidGraphNode;
  const Scope& sc = scopes_[static_cast<std::size_t>(s)];
  return node_scope_[static_cast<std::size_t>(sc.node)] == s
             ? sc.node
             : kInvalidGraphNode;
}

std::span<const GraphNodeId> TapGraph::consumers(GraphNodeId id) const {
  TAP_CHECK(id >= 0 &&
            static_cast<std::size_t>(id) + 1 < consumer_begin_.size())
      << "TapGraph::finalize() was not called";
  const std::size_t i = static_cast<std::size_t>(id);
  return {consumers_.data() + consumer_begin_[i],
          consumers_.data() + consumer_begin_[i + 1]};
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
    if (consumers(n.id).empty()) out.push_back(n.id);
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
    for (GraphNodeId c : consumers(order[head]))
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
