#include "ir/lowering.h"

#include <algorithm>
#include <deque>
#include <numeric>
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
  for (int start = 0; start < n; ++start) {
    if (index[static_cast<std::size_t>(start)] != -1) continue;
    std::vector<Frame> call;
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
  std::string rel = n.name;
  if (!scope.empty() && util::starts_with(n.name, scope) &&
      n.name.size() > scope.size() && n.name[scope.size()] == '/') {
    rel = n.name.substr(scope.size() + 1);
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
  std::unordered_map<std::string, int> scope_ids;
  std::vector<int> scope_of(g.num_nodes(), -1);
  std::vector<std::string> scope_names;
  for (const Node& n : g.nodes()) {
    if (!kept[static_cast<std::size_t>(n.id)]) continue;
    std::string key = opts.cluster_by_scope ? util::path_parent(n.name) : n.name;
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
  // Component id per kept node: (scope, union-find root) pairs.
  std::unordered_map<std::uint64_t, int> comp_ids;
  std::vector<int> comp_of(g.num_nodes(), -1);
  std::vector<int> comp_scope;
  for (NodeId id : topo) {
    if (!kept[static_cast<std::size_t>(id)]) continue;
    std::uint64_t key =
        (static_cast<std::uint64_t>(
             scope_of[static_cast<std::size_t>(id)])
         << 32) |
        static_cast<std::uint64_t>(uf.find(static_cast<std::size_t>(id)));
    auto [it, inserted] =
        comp_ids.emplace(key, static_cast<int>(comp_scope.size()));
    if (inserted)
      comp_scope.push_back(scope_of[static_cast<std::size_t>(id)]);
    comp_of[static_cast<std::size_t>(id)] = it->second;
  }
  int num_comps = static_cast<int>(comp_scope.size());

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
  std::vector<int> scc_of = tarjan_scc(adj, &num_groups);

  // 5. Assemble final groups (ops in topo order inside each group).
  std::vector<std::vector<NodeId>> group_ops(
      static_cast<std::size_t>(num_groups));
  for (NodeId id : topo) {
    if (!kept[static_cast<std::size_t>(id)]) continue;
    int grp = scc_of[static_cast<std::size_t>(comp_of[static_cast<std::size_t>(id)])];
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

  // Kahn over the condensed DAG so add_node sees inputs first.
  std::vector<std::vector<int>> gadj(static_cast<std::size_t>(num_groups));
  std::vector<int> gindeg(static_cast<std::size_t>(num_groups), 0);
  {
    std::vector<std::unordered_map<int, bool>> seen(
        static_cast<std::size_t>(num_groups));
    for (const Node& n : g.nodes()) {
      if (!kept[static_cast<std::size_t>(n.id)]) continue;
      int dst = scc_of[static_cast<std::size_t>(
          comp_of[static_cast<std::size_t>(n.id)])];
      for (NodeId in : n.inputs) {
        if (!kept[static_cast<std::size_t>(in)]) continue;
        int src = scc_of[static_cast<std::size_t>(
            comp_of[static_cast<std::size_t>(in)])];
        if (src == dst) continue;
        if (!seen[static_cast<std::size_t>(src)].emplace(dst, true).second)
          continue;
        gadj[static_cast<std::size_t>(src)].push_back(dst);
        ++gindeg[static_cast<std::size_t>(dst)];
      }
    }
  }
  std::deque<int> ready;
  for (int gi : group_order)
    if (gindeg[static_cast<std::size_t>(gi)] == 0) ready.push_back(gi);
  std::vector<int> emit_order;
  while (!ready.empty()) {
    int gi = ready.front();
    ready.pop_front();
    emit_order.push_back(gi);
    for (int c : gadj[static_cast<std::size_t>(gi)])
      if (--gindeg[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
  }
  TAP_CHECK_EQ(emit_order.size(), group_order.size())
      << "condensed cluster graph is not a DAG";

  // 6. Name groups and materialize GraphNodes.
  TapGraph tg(&g);
  std::unordered_map<std::string, int> name_uses;
  std::vector<GraphNodeId> group_to_node(static_cast<std::size_t>(num_groups),
                                         kInvalidGraphNode);
  std::size_t weight_vars = 0;
  for (int gi : emit_order) {
    const auto& ops = group_ops[static_cast<std::size_t>(gi)];
    // Scope name: the scope of the first member component; if the SCC
    // merged several scopes, use their longest common prefix.
    std::vector<std::string> scopes;
    for (NodeId id : ops) {
      const std::string& s = scope_names[static_cast<std::size_t>(
          scope_of[static_cast<std::size_t>(id)])];
      if (scopes.empty() || scopes.back() != s) scopes.push_back(s);
    }
    std::string base = scopes.size() == 1 ? scopes.front()
                                          : util::longest_common_prefix(scopes);
    if (base.empty()) base = scopes.front();
    int uses = name_uses[base]++;
    std::string name =
        uses == 0 ? base : base + "#" + std::to_string(uses);

    GraphNode node;
    node.name = name;
    node.ops = ops;
    for (NodeId id : ops) {
      const Node& n = g.node(id);
      if (n.has_weight()) {
        node.weight_ops.push_back(id);
        if (n.trainable) node.params += n.weight_params();
        ++weight_vars;
      }
    }
    // Primary kind: weighted op with most params, else heaviest compute op.
    if (!node.weight_ops.empty()) {
      NodeId best = node.weight_ops.front();
      for (NodeId id : node.weight_ops)
        if (g.node(id).weight_params() > g.node(best).weight_params())
          best = id;
      node.primary_kind = g.node(best).kind;
    } else {
      NodeId best = ops.front();
      for (NodeId id : ops)
        if (kind_weight_rank(g.node(id).kind) >
            kind_weight_rank(g.node(best).kind))
          best = id;
      node.primary_kind = g.node(best).kind;
    }
    // Output: the last member (topo order) whose output leaves the group or
    // that has no consumer.
    NodeId out_op = ops.back();
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      bool external = g.consumers(*it).empty();
      for (NodeId c : g.consumers(*it)) {
        if (!kept[static_cast<std::size_t>(c)]) continue;
        if (scc_of[static_cast<std::size_t>(
                comp_of[static_cast<std::size_t>(c)])] != gi) {
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
    // Fingerprint: order-independent mix of member op fingerprints,
    // relative to the group scope.
    std::uint64_t fp = util::kFnvOffset;
    for (NodeId id : ops)
      fp = util::hash_mix_unordered(fp, op_fingerprint(g.node(id), base));
    fp = util::hash_combine(fp, ops.size());
    node.fingerprint = fp;
    // Inputs: producer groups, first-seen order, deduplicated.
    for (NodeId id : ops) {
      for (NodeId in : g.node(id).inputs) {
        if (!kept[static_cast<std::size_t>(in)]) continue;
        int src = scc_of[static_cast<std::size_t>(
            comp_of[static_cast<std::size_t>(in)])];
        if (src == gi) continue;
        GraphNodeId pid = group_to_node[static_cast<std::size_t>(src)];
        TAP_CHECK(pid != kInvalidGraphNode);
        if (std::find(node.inputs.begin(), node.inputs.end(), pid) ==
            node.inputs.end())
          node.inputs.push_back(pid);
      }
    }
    group_to_node[static_cast<std::size_t>(gi)] = tg.add_node(std::move(node));
  }

  if (stats) {
    stats->original_nodes = g.num_nodes();
    stats->trimmed_aux = trimmed;
    stats->graph_nodes = tg.num_nodes();
    stats->weight_variables = weight_vars;
  }
  tg.finalize();
  return tg;
}

}  // namespace tap::ir
