#include "ir/lowering.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "util/check.h"
#include "util/hash.h"
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
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
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

}  // namespace

std::uint64_t op_fingerprint(const Node& n, std::string_view scope) {
  std::string_view rel = n.name;
  if (!scope.empty() && util::starts_with(rel, scope) &&
      rel.size() > scope.size() && rel[scope.size()] == '/') {
    rel.remove_prefix(scope.size() + 1);
  }
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

TapGraph lower(const Graph& g, const LoweringOptions& opts,
               LoweringStats* stats) {
  const std::vector<NodeId> topo = g.topo_order();
  std::vector<int> topo_pos(g.num_nodes(), -1);
  for (std::size_t i = 0; i < topo.size(); ++i)
    topo_pos[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);

  // 1. Trim auxiliary operators.
  std::vector<bool> kept(g.num_nodes(), false);
  std::size_t trimmed = 0;
  for (const Node& n : g.nodes()) {
    if (is_aux(n.kind)) {
      ++trimmed;
    } else {
      kept[static_cast<std::size_t>(n.id)] = true;
    }
  }

  // 2. Initial clustering: by parent name scope (or per-op when disabled).
  // Scope keys are views into the op names, which `g` owns.
  std::unordered_map<std::string_view, int> scope_ids;
  std::vector<int> scope_of(g.num_nodes(), -1);
  std::vector<std::string_view> scope_names;
  for (const Node& n : g.nodes()) {
    if (!kept[static_cast<std::size_t>(n.id)]) continue;
    std::string_view key = n.name;
    if (opts.cluster_by_scope) {
      const std::size_t slash = key.rfind('/');  // the parent scope
      if (slash != std::string_view::npos) key = key.substr(0, slash);
    }
    if (key.empty()) key = n.name;
    auto [it, inserted] =
        scope_ids.emplace(key, static_cast<int>(scope_names.size()));
    if (inserted) scope_names.push_back(key);
    scope_of[static_cast<std::size_t>(n.id)] = it->second;
  }

  // 3. Split each scope cluster into intra-cluster connected components.
  UnionFind uf(g.num_nodes());
  for (const Node& n : g.nodes()) {
    if (!kept[static_cast<std::size_t>(n.id)]) continue;
    for (NodeId in : n.inputs) {
      if (!kept[static_cast<std::size_t>(in)]) continue;
      if (scope_of[static_cast<std::size_t>(in)] ==
          scope_of[static_cast<std::size_t>(n.id)]) {
        uf.unite(static_cast<std::size_t>(in),
                 static_cast<std::size_t>(n.id));
      }
    }
  }
  // Component id per kept node, numbered in topo order of first member.
  // Only same-scope ops are united, so the union-find root alone names
  // the (scope, component) pair.
  std::vector<int> comp_of_root(g.num_nodes(), -1);
  std::vector<int> comp_of(g.num_nodes(), -1);
  int num_comps = 0;
  for (NodeId id : topo) {
    if (!kept[static_cast<std::size_t>(id)]) continue;
    int& comp = comp_of_root[uf.find(static_cast<std::size_t>(id))];
    if (comp < 0) comp = num_comps++;
    comp_of[static_cast<std::size_t>(id)] = comp;
  }

  // 4. Component-level edges, then SCC condensation (safety net).
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(num_comps));
  for (const Node& n : g.nodes()) {
    if (!kept[static_cast<std::size_t>(n.id)]) continue;
    int dst = comp_of[static_cast<std::size_t>(n.id)];
    for (NodeId in : n.inputs) {
      if (!kept[static_cast<std::size_t>(in)]) continue;
      int src = comp_of[static_cast<std::size_t>(in)];
      if (src != dst) adj[static_cast<std::size_t>(src)].push_back(dst);
    }
  }
  int num_groups = 0;
  const std::vector<int> scc_of = tarjan_scc(adj, &num_groups);
  // Final group per op (-1 for trimmed ops).
  std::vector<int> group_of(g.num_nodes(), -1);
  for (std::size_t id = 0; id < group_of.size(); ++id)
    if (kept[id]) group_of[id] = scc_of[static_cast<std::size_t>(comp_of[id])];

  // 5. Assemble final groups (ops in topo order inside each group).
  std::vector<std::vector<NodeId>> group_ops(
      static_cast<std::size_t>(num_groups));
  for (NodeId id : topo) {
    const int grp = group_of[static_cast<std::size_t>(id)];
    if (grp < 0) continue;
    group_ops[static_cast<std::size_t>(grp)].push_back(id);
  }

  // Deterministic group ordering: by topo position of first member.
  std::vector<int> group_order;
  for (int gi = 0; gi < num_groups; ++gi)
    if (!group_ops[static_cast<std::size_t>(gi)].empty())
      group_order.push_back(gi);
  std::sort(group_order.begin(), group_order.end(), [&](int a, int b) {
    return topo_pos[static_cast<std::size_t>(
               group_ops[static_cast<std::size_t>(a)].front())] <
           topo_pos[static_cast<std::size_t>(
               group_ops[static_cast<std::size_t>(b)].front())];
  });

  // Kahn over the condensed DAG so add_node sees inputs first. Group
  // edges are kept flat (CSR by source, each source's targets in
  // first-seen order, duplicates dropped with a per-target stamp).
  std::vector<std::pair<int, int>> gedges;  // (src, dst), first-seen order
  for (const Node& n : g.nodes()) {
    const int dst = group_of[static_cast<std::size_t>(n.id)];
    if (dst < 0) continue;
    for (NodeId in : n.inputs) {
      const int src = group_of[static_cast<std::size_t>(in)];
      if (src >= 0 && src != dst) gedges.emplace_back(src, dst);
    }
  }
  const auto groups = static_cast<std::size_t>(num_groups);
  std::vector<std::size_t> gadj_begin(groups + 1, 0);
  for (const auto& [src, dst] : gedges)
    ++gadj_begin[static_cast<std::size_t>(src) + 1];
  for (std::size_t i = 1; i < gadj_begin.size(); ++i)
    gadj_begin[i] += gadj_begin[i - 1];
  std::vector<int> gadj(gedges.size());
  {
    std::vector<std::size_t> fill(gadj_begin.begin(), gadj_begin.end() - 1);
    for (const auto& [src, dst] : gedges)
      gadj[fill[static_cast<std::size_t>(src)]++] = dst;
  }
  std::vector<std::size_t> gadj_end(groups);
  std::vector<int> gindeg(groups, 0);
  {
    std::vector<int> stamp(groups, -1);
    for (int src = 0; src < num_groups; ++src) {
      const auto s = static_cast<std::size_t>(src);
      std::size_t out = gadj_begin[s];
      for (std::size_t i = gadj_begin[s]; i < gadj_begin[s + 1]; ++i) {
        const int dst = gadj[i];
        if (stamp[static_cast<std::size_t>(dst)] == src) continue;
        stamp[static_cast<std::size_t>(dst)] = src;
        gadj[out++] = dst;
        ++gindeg[static_cast<std::size_t>(dst)];
      }
      gadj_end[s] = out;
    }
  }
  // emit_order doubles as Kahn's FIFO queue.
  std::vector<int> emit_order;
  emit_order.reserve(group_order.size());
  for (int gi : group_order)
    if (gindeg[static_cast<std::size_t>(gi)] == 0) emit_order.push_back(gi);
  for (std::size_t head = 0; head < emit_order.size(); ++head) {
    const auto s = static_cast<std::size_t>(emit_order[head]);
    for (std::size_t i = gadj_begin[s]; i < gadj_end[s]; ++i) {
      const int c = gadj[i];
      if (--gindeg[static_cast<std::size_t>(c)] == 0) emit_order.push_back(c);
    }
  }
  TAP_CHECK_EQ(emit_order.size(), group_order.size())
      << "condensed cluster graph is not a DAG";

  // 6. Name groups and materialize GraphNodes.
  TapGraph tg;
  tg.reserve(emit_order.size());
  // Group names as views: into `g`'s op names, or into merged_bases for
  // the rare group whose SCC merged several scopes.
  std::deque<std::string> merged_bases;
  std::unordered_map<std::string_view, int> name_uses;
  std::vector<GraphNodeId> group_to_node(static_cast<std::size_t>(num_groups),
                                         kInvalidGraphNode);
  std::size_t weight_vars = 0;
  for (int gi : emit_order) {
    GraphNode node;
    node.ops = std::move(group_ops[static_cast<std::size_t>(gi)]);
    const std::vector<NodeId>& ops = node.ops;
    // Scope name: the scope of the first member component; if the SCC
    // merged several scopes, use their longest common prefix (folded over
    // the members' scopes in order).
    int last_scope = scope_of[static_cast<std::size_t>(ops.front())];
    const std::string_view first_scope =
        scope_names[static_cast<std::size_t>(last_scope)];
    std::string_view base = first_scope;
    std::optional<std::string> merged;
    for (NodeId id : ops) {
      const int scope = scope_of[static_cast<std::size_t>(id)];
      if (scope == last_scope) continue;
      last_scope = scope;
      if (!merged.has_value()) merged.emplace(first_scope);
      if (!merged->empty())
        *merged = util::longest_common_prefix(
            *merged, scope_names[static_cast<std::size_t>(scope)]);
    }
    if (merged.has_value() && !merged->empty())
      base = merged_bases.emplace_back(std::move(*merged));
    const int uses = name_uses[base]++;
    node.name = base;
    if (uses > 0) {
      node.name += '#';
      node.name += std::to_string(uses);
    }

    // One pass over the members: weights, the primary-kind candidates,
    // the fingerprint (an order-independent mix of member op fingerprints,
    // relative to the group scope) and the producer groups (first-seen
    // order, deduplicated).
    // The weighted op with the most params, and the op of highest
    // kind_weight_rank; the first one on ties.
    const Node* heaviest_weight = nullptr;
    const Node* heaviest_op = nullptr;
    std::uint64_t fp = util::kFnvOffset;
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
      fp = util::hash_mix_unordered(fp, op_fingerprint(n, base));
      for (NodeId in : n.inputs) {
        const int src = group_of[static_cast<std::size_t>(in)];
        if (src < 0 || src == gi) continue;  // trimmed, or a member
        GraphNodeId pid = group_to_node[static_cast<std::size_t>(src)];
        TAP_CHECK(pid != kInvalidGraphNode);
        if (std::find(node.inputs.begin(), node.inputs.end(), pid) ==
            node.inputs.end())
          node.inputs.push_back(pid);
      }
    }
    node.fingerprint = util::hash_combine(fp, ops.size());
    // Primary kind: weighted op with most params, else heaviest compute op.
    node.primary_kind =
        (heaviest_weight != nullptr ? heaviest_weight : heaviest_op)->kind;
    // Output: the last member (topo order) whose output leaves the group or
    // that has no consumer.
    NodeId out_op = ops.back();
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      bool external = g.consumers(*it).empty();
      for (NodeId c : g.consumers(*it)) {
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
    group_to_node[static_cast<std::size_t>(gi)] = tg.add_node(std::move(node));
  }

  if (stats) {
    stats->original_nodes = g.num_nodes();
    stats->trimmed_aux = trimmed;
    stats->graph_nodes = tg.num_nodes();
    stats->weight_variables = weight_vars;
  }
  tg.finalize(g);
  return tg;
}

}  // namespace tap::ir
