#include "ir/lowering.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "util/check.h"
#include "util/hash.h"
#include "util/interner.h"
#include "util/strings.h"

namespace tap::ir {

namespace {

/// Precedence used to pick a cluster's primary kind when no weight exists.
int kind_weight_rank(OpKind k) {
  switch (k) {
    case OpKind::kMatMul:
    case OpKind::kBatchMatMul:
    case OpKind::kConv2D:
    case OpKind::kEmbedding:
      return 4;
    case OpKind::kMoeRouter:
    case OpKind::kMoeDispatch:
    case OpKind::kMoeCombine:
      return 3;
    case OpKind::kSoftmax:
    case OpKind::kLayerNorm:
    case OpKind::kBatchNorm:
    case OpKind::kCrossEntropy:
    case OpKind::kMaxPool2D:
    case OpKind::kAvgPool2D:
    case OpKind::kGlobalAvgPool:
    case OpKind::kReduceSum:
    case OpKind::kReduceMean:
      return 2;
    default:
      return is_elementwise(k) ? 1 : 0;
  }
}

/// Union-find over node indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

/// Iterative Tarjan SCC over a small adjacency list. Returns a component id
/// per vertex; components are numbered in reverse topological order.
std::vector<int> tarjan_scc(const std::vector<std::vector<int>>& adj,
                            int* num_components) {
  const int n = static_cast<int>(adj.size());
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
  std::vector<int> stack;
  int next_index = 0;
  int next_comp = 0;

  struct Frame {
    int v;
    std::size_t child;
  };
  std::vector<Frame> call;
  for (int start = 0; start < n; ++start) {
    if (index[static_cast<std::size_t>(start)] != -1) continue;
    call.push_back({start, 0});
    index[static_cast<std::size_t>(start)] =
        low[static_cast<std::size_t>(start)] = next_index++;
    stack.push_back(start);
    on_stack[static_cast<std::size_t>(start)] = true;
    while (!call.empty()) {
      Frame& f = call.back();
      const auto& edges = adj[static_cast<std::size_t>(f.v)];
      if (f.child < edges.size()) {
        int w = edges[f.child++];
        if (index[static_cast<std::size_t>(w)] == -1) {
          index[static_cast<std::size_t>(w)] =
              low[static_cast<std::size_t>(w)] = next_index++;
          stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = true;
          call.push_back({w, 0});
        } else if (on_stack[static_cast<std::size_t>(w)]) {
          low[static_cast<std::size_t>(f.v)] =
              std::min(low[static_cast<std::size_t>(f.v)],
                       index[static_cast<std::size_t>(w)]);
        }
      } else {
        if (low[static_cast<std::size_t>(f.v)] ==
            index[static_cast<std::size_t>(f.v)]) {
          while (true) {
            int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp[static_cast<std::size_t>(w)] = next_comp;
            if (w == f.v) break;
          }
          ++next_comp;
        }
        int v = f.v;
        call.pop_back();
        if (!call.empty()) {
          int p = call.back().v;
          low[static_cast<std::size_t>(p)] =
              std::min(low[static_cast<std::size_t>(p)],
                       low[static_cast<std::size_t>(v)]);
        }
      }
    }
  }
  *num_components = next_comp;
  return comp;
}

/// `name` relative to `scope`: the rest after "scope/", else all of it.
std::string_view relative_name(std::string_view name, std::string_view scope) {
  if (!scope.empty() && name.size() > scope.size() &&
      util::starts_with(name, scope) && name[scope.size()] == '/')
    name.remove_prefix(scope.size() + 1);
  return name;
}

std::uint64_t fingerprint(const Node& n, std::string_view rel) {
  std::uint64_t h = util::hash_u64(static_cast<std::uint64_t>(n.kind));
  h = util::hash_combine(h, util::hash_str(rel));
  if (n.weight) {
    for (std::int64_t d : n.weight->shape.dims())
      h = util::hash_combine(h, static_cast<std::uint64_t>(d));
    h = util::hash_combine(h, n.trainable ? 1 : 0);
  }
  for (std::int64_t d : n.output.shape.dims())
    h = util::hash_combine(h, static_cast<std::uint64_t>(d) ^ 0xabcdu);
  h = util::hash_combine(h, n.inputs.size());
  for (const auto& [k, v] : n.attrs) {
    h = util::hash_combine(h, util::hash_str(k));
    h = util::hash_combine(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

/// An op and its name relative to its group's scope: everything
/// fingerprint() reads. The ops of repeated blocks differ only in their
/// absolute scope, so lower() interns these and hashes each class once.
struct FingerprintKey {
  const Node* op = nullptr;
  std::string_view rel;
  std::uint64_t fingerprint = 0;  ///< set once per class

  /// A cheap hash of what fingerprint() reads.
  std::uint64_t hash() const {
    const Node& n = *op;
    std::uint64_t h = util::intern_mix(std::hash<std::string_view>{}(rel),
                                       static_cast<std::uint64_t>(n.kind));
    for (std::int64_t d : n.output.shape.dims())
      h = util::intern_mix(h, static_cast<std::uint64_t>(d));
    if (n.weight)
      for (std::int64_t d : n.weight->shape.dims())
        h = util::intern_mix(h, static_cast<std::uint64_t>(d));
    h = util::intern_mix(h, n.inputs.size());
    for (const auto& kv : n.attrs)
      h = util::intern_mix(h, static_cast<std::uint64_t>(kv.second));
    return h;
  }
  /// Equal in everything fingerprint() reads, so equal fingerprints.
  bool operator==(const FingerprintKey& o) const {
    const Node& a = *op;
    const Node& b = *o.op;
    if (rel != o.rel || a.kind != b.kind || a.has_weight() != b.has_weight() ||
        a.inputs.size() != b.inputs.size() || a.output.shape != b.output.shape)
      return false;
    if (a.weight &&
        (a.trainable != b.trainable || a.weight->shape != b.weight->shape))
      return false;
    return a.attrs == b.attrs;
  }
};

/// An op-level edge: `dst` reads `src`'s output.
struct Edge {
  NodeId src;
  NodeId dst;
};

/// Kahn's order over the graph of groups, `group_of` per op (-1 for a
/// trimmed op): groups whose producers are all emitted are emitted in
/// topo order of their first member, and each emitted group releases its
/// consumer groups in first-seen edge order. Shorter than `num_groups`
/// when the group graph has a cycle.
std::vector<int> emit_order(const std::vector<Edge>& edges,
                            const std::vector<NodeId>& topo,
                            const std::vector<int>& group_of,
                            int num_groups) {
  const auto groups = static_cast<std::size_t>(num_groups);
  // Group edges, flat: CSR by source, each source's targets in
  // first-seen order, duplicates dropped with a per-target stamp.
  std::vector<std::size_t> begin(groups + 1, 0);
  const auto for_each_edge = [&](const auto& fn) {
    for (const Edge& e : edges) {
      const int src = group_of[static_cast<std::size_t>(e.src)];
      const int dst = group_of[static_cast<std::size_t>(e.dst)];
      if (src >= 0 && dst >= 0 && src != dst)
        fn(static_cast<std::size_t>(src), dst);
    }
  };
  for_each_edge([&](std::size_t src, int) { ++begin[src + 1]; });
  for (std::size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
  std::vector<int> adj(begin.back());
  {
    std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
    for_each_edge([&](std::size_t src, int dst) { adj[fill[src]++] = dst; });
  }
  std::vector<std::size_t> end(groups);
  std::vector<int> indegree(groups, 0);
  {
    std::vector<int> stamp(groups, -1);
    for (std::size_t src = 0; src < groups; ++src) {
      std::size_t out = begin[src];
      for (std::size_t i = begin[src]; i < begin[src + 1]; ++i) {
        const int dst = adj[i];
        if (stamp[static_cast<std::size_t>(dst)] == static_cast<int>(src))
          continue;
        stamp[static_cast<std::size_t>(dst)] = static_cast<int>(src);
        adj[out++] = dst;
        ++indegree[static_cast<std::size_t>(dst)];
      }
      end[src] = out;
    }
  }
  // The order doubles as Kahn's FIFO queue, seeded with the source
  // groups in topo order of their first member.
  std::vector<int> order;
  order.reserve(groups);
  {
    std::vector<bool> seen(groups, false);
    for (NodeId id : topo) {
      const int grp = group_of[static_cast<std::size_t>(id)];
      if (grp < 0 || seen[static_cast<std::size_t>(grp)]) continue;
      seen[static_cast<std::size_t>(grp)] = true;
      if (indegree[static_cast<std::size_t>(grp)] == 0) order.push_back(grp);
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto s = static_cast<std::size_t>(order[head]);
    for (std::size_t i = begin[s]; i < end[s]; ++i) {
      const int c = adj[i];
      if (--indegree[static_cast<std::size_t>(c)] == 0) order.push_back(c);
    }
  }
  return order;
}

}  // namespace

std::uint64_t op_fingerprint(const Node& n, std::string_view scope) {
  return fingerprint(n, relative_name(n.name, scope));
}

TapGraph lower(const Graph& g, const LoweringOptions& opts,
               LoweringStats* stats) {
  const std::size_t num_ops = g.num_nodes();

  // 1-3. One pass in id order, where every op's inputs come before it:
  // collect the edges, trim auxiliary operators, intern each kept op's
  // cluster key (its parent name scope, or the op itself when not
  // clustering by scope), and unite it with its producers of the same
  // key, so that the initial clusters are each scope's intra-cluster
  // connected components. Keys are views into the op names, which `g`
  // owns. The group edges of step 4 are read from the flat edges.
  std::vector<Edge> edges;
  edges.reserve(2 * num_ops);
  // Key ids count uses of each name in step 6, where merged bases join
  // them (at most one per group).
  std::vector<std::string_view> keys;
  util::Interner key_ids(2 * num_ops, &keys, std::hash<std::string_view>{},
                         std::equal_to<std::string_view>());
  std::vector<int> key_of(num_ops, -1);  // -1: trimmed
  UnionFind uf(num_ops);
  std::size_t trimmed = 0;
  int last_key = -1;
  for (const Node& n : g.nodes()) {
    for (NodeId in : n.inputs) edges.push_back({in, n.id});
    if (is_aux(n.kind)) {
      ++trimmed;
      continue;
    }
    std::string_view key = n.name;
    if (opts.cluster_by_scope) {
      const std::size_t slash = key.rfind('/');  // the parent scope
      if (slash != std::string_view::npos) key = key.substr(0, slash);
    }
    if (key.empty()) key = n.name;
    // Ops of one scope are mostly adjacent: try the last key first.
    if (last_key < 0 || keys[static_cast<std::size_t>(last_key)] != key)
      last_key = static_cast<int>(key_ids.intern(key));
    key_of[static_cast<std::size_t>(n.id)] = last_key;
    for (NodeId in : n.inputs)
      if (key_of[static_cast<std::size_t>(in)] == last_key)
        uf.unite(static_cast<std::uint32_t>(in),
                 static_cast<std::uint32_t>(n.id));
  }
  const std::vector<NodeId> topo = g.topo_order();
  // Component id per kept op, numbered in topo order of first member.
  // Only same-key ops are united, so the union-find root alone names the
  // (key, component) pair.
  std::vector<int> comp_of_root(num_ops, -1);
  std::vector<int> group_of(num_ops, -1);  // -1: trimmed
  int num_groups = 0;
  for (NodeId id : topo) {
    if (key_of[static_cast<std::size_t>(id)] < 0) continue;
    int& comp = comp_of_root[uf.find(static_cast<std::uint32_t>(id))];
    if (comp < 0) comp = num_groups++;
    group_of[static_cast<std::size_t>(id)] = comp;
  }

  // 4. The components are the groups, unless their graph has a cycle:
  // then condense its strongly-connected components (safety net).
  std::vector<int> order = emit_order(edges, topo, group_of, num_groups);
  if (order.size() < static_cast<std::size_t>(num_groups)) {
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(num_groups));
    for (const Edge& e : edges) {
      const int src = group_of[static_cast<std::size_t>(e.src)];
      const int dst = group_of[static_cast<std::size_t>(e.dst)];
      if (src >= 0 && dst >= 0 && src != dst)
        adj[static_cast<std::size_t>(src)].push_back(dst);
    }
    const std::vector<int> scc_of = tarjan_scc(adj, &num_groups);
    for (int& grp : group_of)
      if (grp >= 0) grp = scc_of[static_cast<std::size_t>(grp)];
    order = emit_order(edges, topo, group_of, num_groups);
    TAP_CHECK_EQ(order.size(), static_cast<std::size_t>(num_groups))
        << "condensed cluster graph is not a DAG";
  }

  // 5. Each group's ops in topo order, flat: group i's are
  // ops[ops_begin[i], ops_begin[i + 1]).
  const auto groups = static_cast<std::size_t>(num_groups);
  std::vector<std::size_t> ops_begin(groups + 1, 0);
  for (int grp : group_of)
    if (grp >= 0) ++ops_begin[static_cast<std::size_t>(grp) + 1];
  for (std::size_t i = 1; i < ops_begin.size(); ++i)
    ops_begin[i] += ops_begin[i - 1];
  std::vector<NodeId> group_ops(ops_begin.back());
  {
    std::vector<std::size_t> fill(ops_begin.begin(), ops_begin.end() - 1);
    for (NodeId id : topo) {
      const int grp = group_of[static_cast<std::size_t>(id)];
      if (grp >= 0) group_ops[fill[static_cast<std::size_t>(grp)]++] = id;
    }
  }

  // 6. Name groups and materialize GraphNodes.
  TapGraph tg;
  tg.reserve(groups);
  // Bases of groups whose SCC merged several scopes.
  std::deque<std::string> merged_bases;
  // Per key, the next "#k" suffix to try; 0 while the key names nothing.
  std::vector<int> name_uses;
  // Keys holding '#' (none in the zoo), collected at the first "#k"
  // name; only with such keys can a merged base equal a "#k" name given.
  bool keys_scanned = false;
  std::unordered_set<std::string_view> hashed_keys;
  std::unordered_set<std::string> suffixed;
  std::vector<GraphNodeId> group_to_node(groups, kInvalidGraphNode);
  // op_fingerprint, once per class of equal FingerprintKeys.
  std::vector<FingerprintKey> fingerprints;
  util::Interner fingerprint_ids(
      num_ops, &fingerprints, [](const FingerprintKey& k) { return k.hash(); },
      std::equal_to<FingerprintKey>());
  std::vector<GraphNodeId> inputs;  // one node's, before its exact copy
  std::size_t weight_vars = 0;
  for (int gi : order) {
    GraphNode node;
    const auto gs = static_cast<std::size_t>(gi);
    node.ops.assign(
        group_ops.begin() + static_cast<std::ptrdiff_t>(ops_begin[gs]),
        group_ops.begin() + static_cast<std::ptrdiff_t>(ops_begin[gs + 1]));
    const std::vector<NodeId>& ops = node.ops;
    // Scope name: the key of the first member component; if the SCC
    // merged several keys, use their longest common prefix (folded over
    // the members' keys in order).
    int prev_key = key_of[static_cast<std::size_t>(ops.front())];
    auto base_key = static_cast<std::uint32_t>(prev_key);
    std::optional<std::string> merged;
    for (NodeId id : ops) {
      const int key = key_of[static_cast<std::size_t>(id)];
      if (key == prev_key) continue;
      prev_key = key;
      if (!merged.has_value()) merged.emplace(keys[base_key]);
      if (!merged->empty())
        *merged = util::longest_common_prefix(
            *merged, keys[static_cast<std::size_t>(key)]);
    }
    if (merged.has_value() && !merged->empty()) {
      base_key =
          key_ids.intern(merged_bases.emplace_back(std::move(*merged)));
      if (keys_scanned && keys[base_key].find('#') != std::string_view::npos)
        hashed_keys.insert(keys[base_key]);
    }
    const std::string_view base = keys[base_key];
    if (name_uses.size() < keys.size()) name_uses.resize(keys.size(), 0);
    // A scope's first component takes the scope's name, a later one the
    // next "<base>#k" that is no key (the last '#' splits base and k, so
    // "#k" names of distinct bases never collide).
    int& next = name_uses[base_key];
    node.name = base;
    if (next > 0 || suffixed.contains(node.name)) {
      if (!keys_scanned) {
        keys_scanned = true;
        for (const std::string_view k : keys)
          if (k.find('#') != std::string_view::npos) hashed_keys.insert(k);
      }
      next = std::max(next, 1);
      do {
        node.name.assign(base) += '#' + std::to_string(next++);
      } while (hashed_keys.contains(node.name));
      if (!hashed_keys.empty()) suffixed.insert(node.name);
    }
    next = std::max(next, 1);

    // One pass over the members: weights, the primary-kind candidates,
    // the fingerprint (an order-independent mix of member op fingerprints,
    // relative to the group scope) and the producer groups (first-seen
    // order, deduplicated).
    // The weighted op with the most params, and the op of highest
    // kind_weight_rank; the first one on ties.
    const Node* heaviest_weight = nullptr;
    const Node* heaviest_op = nullptr;
    std::uint64_t fp = util::kFnvOffset;
    inputs.clear();
    for (NodeId id : ops) {
      const Node& n = g.node(id);
      if (n.has_weight()) {
        node.weight_ops.push_back(id);
        if (n.trainable) node.params += n.weight_params();
        ++weight_vars;
        if (heaviest_weight == nullptr ||
            n.weight_params() > heaviest_weight->weight_params())
          heaviest_weight = &n;
      }
      if (heaviest_op == nullptr ||
          kind_weight_rank(n.kind) > kind_weight_rank(heaviest_op->kind))
        heaviest_op = &n;
      const std::size_t known = fingerprints.size();
      FingerprintKey& f = fingerprints[fingerprint_ids.intern(
          {&n, relative_name(n.name, base)})];
      if (fingerprints.size() > known) f.fingerprint = fingerprint(n, f.rel);
      fp = util::hash_mix_unordered(fp, f.fingerprint);
      for (NodeId in : n.inputs) {
        const int src = group_of[static_cast<std::size_t>(in)];
        if (src < 0 || src == gi) continue;  // trimmed, or a member
        GraphNodeId pid = group_to_node[static_cast<std::size_t>(src)];
        TAP_CHECK(pid != kInvalidGraphNode);
        if (std::find(inputs.begin(), inputs.end(), pid) == inputs.end())
          inputs.push_back(pid);
      }
    }
    node.inputs.assign(inputs.begin(), inputs.end());
    node.fingerprint = util::hash_combine(fp, ops.size());
    // Primary kind: weighted op with most params, else heaviest compute op.
    node.primary_kind =
        (heaviest_weight != nullptr ? heaviest_weight : heaviest_op)->kind;
    // Output: the last member (topo order) whose output leaves the group or
    // that has no consumer.
    NodeId out_op = ops.back();
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      const std::vector<NodeId>& consumers = g.consumers(*it);
      bool external = consumers.empty();
      for (NodeId c : consumers) {
        const int dst = group_of[static_cast<std::size_t>(c)];
        if (dst >= 0 && dst != gi) {
          external = true;
          break;
        }
      }
      if (external) {
        out_op = *it;
        break;
      }
    }
    node.output = g.node(out_op).output;
    group_to_node[gs] = tg.add_node(std::move(node));
  }

  if (stats) {
    stats->original_nodes = num_ops;
    stats->trimmed_aux = trimmed;
    stats->graph_nodes = tg.num_nodes();
    stats->weight_variables = weight_vars;
  }
  tg.finalize(g);
  return tg;
}

}  // namespace tap::ir
