#include "rewrite/rewrite.h"

#include <map>
#include <unordered_map>

#include "util/check.h"

namespace tap::rewrite {

namespace {

using ir::GraphNodeId;
using sharding::Collective;
using sharding::CommEvent;
using sharding::ShardingPattern;

OpKind comm_op_kind(Collective c) {
  switch (c) {
    case Collective::kAllReduce: return OpKind::kAllReduce;
    case Collective::kAllGather: return OpKind::kAllGather;
    case Collective::kReduceScatter: return OpKind::kReduceScatter;
    case Collective::kAllToAll: return OpKind::kAllToAll;
    case Collective::kBroadcast: return OpKind::kBroadcast;
    case Collective::kNone: break;
  }
  TAP_CHECK(false) << "no op kind for collective";
  return OpKind::kNoOp;
}

}  // namespace

RewriteResult rewrite_graph(const Graph& src, const ir::TapGraph& tg,
                            const sharding::RoutedPlan& routed,
                            bool restore_aux) {
  TAP_CHECK(routed.valid) << "cannot rewrite an invalid plan: "
                          << routed.error;
  TAP_CHECK_EQ(tg.num_source_ops(), src.num_nodes())
      << "TapGraph was lowered from another graph";

  const int num_shards = routed.num_shards;
  RewriteResult result;
  result.parallel.set_name(src.name() + "@x" + std::to_string(num_shards));

  // --- index the routed plan -----------------------------------------------
  // Cluster of each source op.
  std::vector<GraphNodeId> cluster_of(src.num_nodes(), ir::kInvalidGraphNode);
  for (const auto& gn : tg.nodes())
    for (NodeId op : gn.ops)
      cluster_of[static_cast<std::size_t>(op)] = gn.id;

  // Primary weight op per cluster (comm insertion point) and its pattern.
  std::vector<NodeId> primary_op(tg.num_nodes(), kInvalidNode);
  std::vector<ShardingPattern> pattern(tg.num_nodes());
  for (const auto& gn : tg.nodes()) {
    pattern[static_cast<std::size_t>(gn.id)] =
        sharding::routed_pattern(tg, routed, gn.id);
    if (gn.has_weight()) {
      NodeId best = gn.weight_ops.front();
      for (NodeId wid : gn.weight_ops)
        if (src.node(wid).weight_params() > src.node(best).weight_params())
          best = wid;
      primary_op[static_cast<std::size_t>(gn.id)] = best;
    } else if (!gn.ops.empty()) {
      primary_op[static_cast<std::size_t>(gn.id)] = gn.ops.back();
    }
  }

  // Layout conversions per edge: the router records one EdgeConversion for
  // every (producer, consumer) pair whose tensor must change layout — even
  // when the collective itself is deduplicated (Megatron's Q/K/V read one
  // gathered copy), so every consumer is wired through the shared node.
  std::map<std::pair<GraphNodeId, GraphNodeId>,
           const sharding::EdgeConversion*>
      conversions;
  for (const sharding::EdgeConversion& ec : routed.edge_conversions) {
    conversions.emplace(std::make_pair(ec.src, ec.dst), &ec);
  }

  // --- rebuild the graph in original topological order ---------------------
  std::vector<NodeId> redirect(src.num_nodes(), kInvalidNode);
  // Conversion node per (producer cluster, target layout axis), created on
  // first use and shared by every consumer needing that layout.
  std::map<std::pair<GraphNodeId, int>, NodeId> shared_reshard_nodes;

  Graph& out = result.parallel;
  for (NodeId old_id : src.topo_order()) {
    const Node& n = src.node(old_id);
    if (is_aux(n.kind)) {
      if (!restore_aux) continue;
      Node aux = n;
      aux.inputs.clear();
      for (NodeId in : n.inputs) {
        NodeId m = redirect[static_cast<std::size_t>(in)];
        if (m != kInvalidNode) aux.inputs.push_back(m);
      }
      redirect[static_cast<std::size_t>(old_id)] = out.add_node(std::move(aux));
      ++result.aux_restored;
      continue;
    }

    GraphNodeId c = cluster_of[static_cast<std::size_t>(old_id)];
    TAP_CHECK(c != ir::kInvalidGraphNode);

    Node copy = n;
    copy.inputs.clear();
    for (NodeId in : n.inputs) {
      NodeId mapped = redirect[static_cast<std::size_t>(in)];
      TAP_CHECK(mapped != kInvalidNode)
          << "input '" << src.node(in).name << "' not yet rewritten";
      GraphNodeId pc = cluster_of[static_cast<std::size_t>(in)];
      auto cit = conversions.find(std::make_pair(pc, c));
      if (pc != c && cit != conversions.end()) {
        // Conversion nodes are shared per (producer, target layout).
        const sharding::EdgeConversion& ec = *cit->second;
        const int rank = src.node(in).output.shape.rank();
        const int to_axis =
            ec.to.is_split() ? ec.to.resolved_axis(rank) : -1;
        auto node_key = std::make_pair(pc, to_axis);
        auto nit = shared_reshard_nodes.find(node_key);
        if (nit == shared_reshard_nodes.end()) {
          Node comm;
          comm.name = tg.node(pc).name + "/reshard/" +
                      std::to_string(to_axis + 1);
          comm.kind = ec.to.is_replicate() ? OpKind::kAllGather
                                           : OpKind::kAllToAll;
          comm.inputs = {mapped};
          comm.output = src.node(in).output;
          comm.attrs["group"] = num_shards;
          comm.attrs["from_axis"] =
              ec.from.is_split() ? ec.from.resolved_axis(rank) : -1;
          comm.attrs["to_axis"] = to_axis;
          NodeId comm_id = out.add_node(std::move(comm));
          ++result.comm_nodes;
          nit = shared_reshard_nodes.emplace(node_key, comm_id).first;
        }
        copy.inputs.push_back(nit->second);
      } else {
        copy.inputs.push_back(mapped);
      }
    }

    // Sharding annotations (logical shapes preserved, GSPMD-style).
    const ShardingPattern& pat = pattern[static_cast<std::size_t>(c)];
    const sharding::ShardSpec& ospec =
        routed.output_spec[static_cast<std::size_t>(c)];
    copy.attrs["group"] = num_shards;
    copy.attrs["shard_axis"] =
        ospec.is_split() ? ospec.resolved_axis(n.output.shape.rank()) : -1;
    if (n.has_weight() &&
        old_id == primary_op[static_cast<std::size_t>(c)]) {
      copy.attrs["weight_shard_axis"] =
          pat.weight.is_split()
              ? pat.weight.resolved_axis(n.weight->shape.rank())
              : -1;
    }

    NodeId new_id = out.add_node(std::move(copy));
    redirect[static_cast<std::size_t>(old_id)] = new_id;

    // Pattern forward collective right after the cluster's primary op.
    if (pat.forward_comm != Collective::kNone &&
        old_id == primary_op[static_cast<std::size_t>(c)]) {
      for (int k = 0; k < pat.forward_comm_count; ++k) {
        Node comm;
        comm.name = n.name + "/" +
                    std::string(collective_name(pat.forward_comm)) +
                    (k > 0 ? "_" + std::to_string(k) : "");
        comm.kind = comm_op_kind(pat.forward_comm);
        comm.inputs = {redirect[static_cast<std::size_t>(old_id)]};
        comm.output = n.output;
        comm.attrs["group"] = num_shards;
        redirect[static_cast<std::size_t>(old_id)] = out.add_node(
            std::move(comm));
        ++result.comm_nodes;
      }
    }
  }

  // --- gradient-synchronization collectives (§4.7.1 packing inputs) --------
  // Reverse topological order = the order gradients materialize in the
  // backward pass. A single-device "mesh" has nobody to synchronize with.
  std::vector<NodeId> topo = src.topo_order();
  const bool solo = num_shards * std::max(1, routed.dp_replicas) <= 1;
  for (auto it = topo.rbegin(); !solo && it != topo.rend(); ++it) {
    const Node& n = src.node(*it);
    if (!n.has_weight() || !n.trainable) continue;
    GraphNodeId c = cluster_of[static_cast<std::size_t>(*it)];
    const ShardingPattern& pat = pattern[static_cast<std::size_t>(c)];
    bool is_primary = *it == primary_op[static_cast<std::size_t>(c)];
    bool replicated = !is_primary || pat.replicates_weight();
    if (!replicated) continue;  // split weights keep their grads local
    Node comm;
    comm.name = n.name + "/grad/AllReduce";
    comm.kind = OpKind::kAllReduce;
    comm.inputs = {redirect[static_cast<std::size_t>(*it)]};
    comm.output = *n.weight;
    comm.attrs["group"] = num_shards;
    out.add_node(std::move(comm));
    ++result.comm_nodes;
    result.gradients.push_back({n.name, n.weight->size_bytes()});
  }

  out.validate();
  return result;
}

}  // namespace tap::rewrite
