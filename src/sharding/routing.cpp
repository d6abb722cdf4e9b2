#include "sharding/routing.h"

#include <algorithm>
#include <climits>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace tap::sharding {

namespace {

using ir::GraphNode;
using ir::GraphNodeId;
using ir::TapGraph;

/// Undoes the scratch writes past the first `igrad` igrad and
/// `materialized` materialized log entries, newest first.
void rollback_scratch(RoutingScratch& scratch, std::size_t igrad,
                      std::size_t materialized) {
  std::vector<GraphNodeId>& igrad_log = scratch.igrad_touched;
  for (; igrad_log.size() > igrad; igrad_log.pop_back())
    scratch.igrad_emitted[static_cast<std::size_t>(igrad_log.back())] = 0;
  std::vector<GraphNodeId>& layout_log = scratch.materialized_touched;
  for (; layout_log.size() > materialized; layout_log.pop_back()) {
    const auto producer = static_cast<std::size_t>(layout_log.back());
    scratch.materialized[producer].pop_back();
  }
}

/// Resets what a route over `scope` (nullptr = the whole graph) reads:
/// the routed events, the scratch logs, and the output layouts and
/// patterns. A subgraph route into buffers already sized for this graph
/// resets only the scope's entries (route_subgraph_into docs):
/// O(members), not O(V).
void reset_route(std::size_t num_nodes, const SubgraphScope* scope,
                 const ShardSpec& boundary, RoutingScratch& scratch,
                 RoutedPlan& out) {
  out.comms.clear();
  out.edge_conversions.clear();
  rollback_scratch(scratch, 0, 0);
  if (scope != nullptr && out.output_spec.size() == num_nodes &&
      out.pattern_index.size() == num_nodes) {
    for (GraphNodeId id : scope->reads)
      out.output_spec[static_cast<std::size_t>(id)] = boundary;
    for (GraphNodeId id : scope->order)
      out.pattern_index[static_cast<std::size_t>(id)] = 0;
  } else {
    out.output_spec.assign(num_nodes, boundary);
    out.pattern_index.assign(num_nodes, 0);
  }
}

struct Router {
  const TapGraph& tg;
  const ShardingPlan& plan;
  const SubgraphScope* scope;  // nullptr = the whole graph
  ShardSpec boundary;
  const PatternTable& table;  // the plan's mesh's catalog
  // Working state lives in caller-owned buffers so repeated candidate
  // routes reuse capacity instead of reallocating (RoutingScratch docs).
  // scratch.igrad_emitted: producers whose partial input-gradient
  // AllReduce is already emitted — several column-split consumers of one
  // tensor (Megatron's fused QKV) sum their partials into ONE AllReduce,
  // not one each. scratch.materialized: layouts already materialized per
  // producer — once one consumer paid the AllGather from S(0) to R, every
  // other consumer reads the gathered copy for free (NCCL buffers are
  // reusable within a step).
  RoutingScratch& scratch;
  RoutedPlan& out;

  /// Records "invalid at '<node>': <why...>", appending the pieces into
  /// out.error's reused capacity (an invalid candidate allocates nothing
  /// either, short of an unusually long shape string).
  bool fail(const GraphNode& n, std::initializer_list<std::string_view> why) {
    out.error = "invalid at '";
    out.error += n.name;
    out.error += "': ";
    for (std::string_view piece : why) out.error += piece;
    out.valid = false;
    return false;
  }

  /// Appends a collective; returns it, or nullptr when it moves no bytes
  /// (nothing to send, or a group of one device). A `group` of 0 is the
  /// plan's tp group; the event records the resolved size.
  CommEvent* emit(Collective kind, std::int64_t bytes, int count,
                  CommEvent::Phase phase, bool overlappable, GraphNodeId node,
                  CommReason why, GraphNodeId src = ir::kInvalidGraphNode,
                  int group = 0, bool cross_node = false) {
    if (kind == Collective::kNone || bytes <= 0) return nullptr;
    if (group == 0) group = plan.num_shards;
    if (group <= 1) return nullptr;  // degenerate group: no wire traffic
    CommEvent& e = out.comms.emplace_back();
    e.kind = kind;
    e.bytes = bytes;
    e.count = count;
    e.phase = phase;
    e.overlappable = overlappable;
    e.node = node;
    e.src = src;
    e.group = group;
    e.cross_node = cross_node;
    e.why = why;
    return &e;
  }

  /// A layout conversion and its gradient-path mirror.
  void emit_reshard(Collective fwd, Collective bwd, std::int64_t bytes,
                    GraphNodeId consumer, GraphNodeId producer,
                    const ShardSpec& from, const ShardSpec& to) {
    auto leg = [&](Collective kind, CommEvent::Phase phase, CommReason why) {
      if (CommEvent* e =
              emit(kind, bytes, 1, phase, false, consumer, why, producer)) {
        e->from_spec = from;
        e->to_spec = to;
      }
    };
    leg(fwd, CommEvent::Phase::kForward, CommReason::kReshard);
    leg(bwd, CommEvent::Phase::kBackward, CommReason::kReshardGrad);
  }

  /// Per-replica bytes of an activation tensor: the batch is pre-split
  /// across the dp replicas.
  std::int64_t act_bytes(std::int64_t full) const {
    return full / std::max(1, plan.dp_replicas);
  }

  /// Converts the layout of `producer`'s output, flowing into `consumer`,
  /// to `want`. Returns false on an impossible conversion (indivisible
  /// target axis).
  bool convert(const GraphNode& consumer, GraphNodeId producer,
               const ShardSpec& have, const ShardSpec& want) {
    const TensorSpec& tensor = tg.node(producer).output;
    int rank = tensor.shape.rank();
    if (have.same_layout(want, rank)) return true;
    if (want.is_split() && !want.fits(tensor.shape, plan.num_shards)) {
      return fail(consumer, {"cannot re-shard ", tensor.shape.to_string(),
                             " to ", want.to_string()});
    }
    if (have.is_replicate()) {
      // replicate -> split: local slice, free.
      return true;
    }
    // Record the edge even when the collective below is deduplicated —
    // the rewriter must wire EVERY consumer through the conversion node.
    out.edge_conversions.push_back({producer, consumer.id, have, want});
    if (scratch.materialized.size() < tg.num_nodes())
      scratch.materialized.resize(tg.num_nodes());
    auto& layouts = scratch.materialized[static_cast<std::size_t>(producer)];
    for (const ShardSpec& ready : layouts) {
      if (ready.same_layout(want, rank)) return true;  // already paid
    }
    layouts.push_back(want);
    scratch.materialized_touched.push_back(producer);
    const std::int64_t bytes = act_bytes(tg.route_bytes(producer).output);
    if (want.is_replicate()) {
      emit_reshard(Collective::kAllGather, Collective::kReduceScatter, bytes,
                   consumer.id, producer, have, want);
    } else {  // split(a) -> split(b)
      emit_reshard(Collective::kAllToAll, Collective::kAllToAll, bytes,
                   consumer.id, producer, have, want);
    }
    return true;
  }

  /// A whole route: resets the outputs and the scratch this route reads,
  /// then steps through `order`.
  void run(const std::vector<GraphNodeId>& order) {
    TAP_CHECK_EQ(plan.choice.size(), tg.num_nodes());
    out.valid = false;
    out.error.clear();
    out.num_shards = plan.num_shards;
    out.dp_replicas = plan.dp_replicas;
    TAP_CHECK(table.num_shards() == plan.num_shards &&
              table.dp_replicas() == plan.dp_replicas)
        << "the pattern table is not the plan's mesh's";
    reset_route(tg.num_nodes(), scope, boundary, scratch, out);
    for (GraphNodeId id : order)
      if (!step(id)) return;
    out.valid = true;
  }

  /// Routes node `id` (Algorithm 3's visit of one node) given its
  /// producers' layouts. Returns false, with out.error set, when the
  /// node's pattern cannot be honored.
  bool step(GraphNodeId id) {
    const int parts = plan.num_shards;
    const GraphNode& n = tg.node(id);
    const std::vector<ShardingPattern>& pats = table.at(id);
    int c = plan.choice[static_cast<std::size_t>(id)];
    if (c < 0 || c >= static_cast<int>(pats.size())) {
      return fail(n, {"no sharding pattern with index ", std::to_string(c)});
    }
    const ShardingPattern& pat = pats[static_cast<std::size_t>(c)];
    out.pattern_index[static_cast<std::size_t>(id)] = c;

    // Incoming layout from the primary producer (roots see replicated
    // feeds).
    ShardSpec incoming = ShardSpec::replicate();
    const TensorSpec* in_tensor = nullptr;
    if (!n.inputs.empty()) {
      GraphNodeId p = n.inputs.front();
      incoming = out.output_spec[static_cast<std::size_t>(p)];
      in_tensor = &tg.node(p).output;
    }

    // Effective input layout after honoring the pattern's requirement.
    ShardSpec effective = incoming;
    if (pat.input.has_value() && in_tensor != nullptr) {
      if (!convert(n, n.inputs.front(), incoming, *pat.input)) return false;
      effective = *pat.input;
    }
    // Ops that reduce over the last axis cannot consume a last-axis
    // split; gather it back.
    if (!pat.input.has_value() && in_tensor != nullptr &&
        effective.is_split() &&
        rejects_last_axis_split(n.primary_kind) &&
        effective.resolved_axis(in_tensor->shape.rank()) ==
            in_tensor->shape.rank() - 1) {
      if (!convert(n, n.inputs.front(), effective, ShardSpec::replicate()))
        return false;
      effective = ShardSpec::replicate();
    }
    // Secondary inputs must arrive in the same layout (residual adds,
    // attention memories); convert them.
    for (std::size_t i = 1; i < n.inputs.size(); ++i) {
      GraphNodeId p = n.inputs[i];
      const TensorSpec& t = tg.node(p).output;
      ShardSpec have = out.output_spec[static_cast<std::size_t>(p)];
      // Only meaningful when shapes are compatible; smaller side tensors
      // (labels, router probs) just need *a* consistent layout — treat
      // mismatched ranks as replicated requirements.
      ShardSpec want = effective;
      if (t.shape.rank() != (in_tensor ? in_tensor->shape.rank() : 0))
        want = ShardSpec::replicate();
      if (!convert(n, p, have, want)) return false;
    }

    // Output layout.
    ShardSpec produced = pat.output.has_value() ? *pat.output : effective;
    if (produced.is_split()) {
      if (n.output.shape.rank() == 0) {
        produced = ShardSpec::replicate();  // scalar losses collapse
      } else if (!produced.fits(n.output.shape, parts)) {
        return fail(n, {"output ", n.output.shape.to_string(),
                        " not divisible under ", produced.to_string()});
      }
    }
    out.output_spec[static_cast<std::size_t>(id)] = produced;

    // Pattern collectives.
    const ir::RouteBytes& bytes = tg.route_bytes(id);
    if (pat.forward_comm != Collective::kNone) {
      emit(pat.forward_comm, act_bytes(bytes.output), pat.forward_comm_count,
           CommEvent::Phase::kForward, false, id, CommReason::kPattern);
      if (pat.forward_comm == Collective::kAllToAll) {
        // Expert dispatch/combine repeats on the gradient path.
        emit(pat.forward_comm, act_bytes(bytes.output),
             pat.forward_comm_count, CommEvent::Phase::kBackward, false,
             id, CommReason::kPatternGrad);
      }
    }
    if (n.has_weight()) {
      const int dp = std::max(1, plan.dp_replicas);
      // A replicated weight needs its gradients synchronized across
      // every device that saw *different data*: always the dp replicas,
      // plus the tp group whenever the activation stream is split within
      // it (batch-split dp pattern or any sharded layout flowing
      // through). A weight computed from fully replicated data yields
      // identical gradients — no communication.
      const bool data_diverges_in_tp =
          pat.name == "dp" || effective.is_split() ||
          (pat.output.has_value() && pat.output->is_split());
      const int replicated_group =
          data_diverges_in_tp ? dp * plan.num_shards : dp;
      if (pat.replicates_weight()) {
        // Every weight in the cluster stays replicated: one gradient
        // AllReduce over all of them; overlappable with backward compute
        // and foldable by gradient packing (§4.6).
        emit(Collective::kAllReduce, bytes.weight_grad, 1,
             CommEvent::Phase::kBackward, true, id, CommReason::kWeightGrad,
             ir::kInvalidGraphNode, replicated_group, /*cross_node=*/dp > 1);
      } else {
        // Primary weight is split (its gradients stay local); secondary
        // weights (norm gains, biases inside the cluster) remain
        // replicated and still need their gradient AllReduce.
        emit(Collective::kAllReduce, bytes.secondary_grad, 1,
             CommEvent::Phase::kBackward, true, id,
             CommReason::kSecondaryWeightGrad,
             ir::kInvalidGraphNode, replicated_group,
             /*cross_node=*/dp > 1);
        if (dp > 1 && bytes.primary_grad > 0) {
          // The tp-sharded primary weight still synchronizes its local
          // shard across the dp replicas.
          emit(Collective::kAllReduce, bytes.primary_grad / plan.num_shards,
               1, CommEvent::Phase::kBackward, true, id,
               CommReason::kShardWeightGrad, ir::kInvalidGraphNode, dp,
               /*cross_node=*/true);
        }
      }
      if (pat.backward_subject == BwdSubject::kInputGrad &&
          pat.backward_comm != Collective::kNone && in_tensor != nullptr) {
        // Partial input gradients block the backward chain. One
        // AllReduce per producer tensor, shared by all split consumers.
        const std::size_t p =
            static_cast<std::size_t>(n.inputs.front());
        if (scratch.igrad_emitted.size() < tg.num_nodes())
          scratch.igrad_emitted.resize(tg.num_nodes(), 0);
        if (!scratch.igrad_emitted[p]) {
          scratch.igrad_emitted[p] = 1;
          scratch.igrad_touched.push_back(n.inputs.front());
          emit(pat.backward_comm,
               act_bytes(tg.route_bytes(n.inputs.front()).output), 1,
               CommEvent::Phase::kBackward, false, id,
               CommReason::kInputGrad, n.inputs.front());
        }
      }
    }
    return true;
  }
};

}  // namespace

std::int64_t RoutedPlan::total_comm_bytes() const {
  std::int64_t b = 0;
  for (const auto& e : comms) b += e.bytes * e.count;
  return b;
}

std::int64_t RoutedPlan::forward_comm_bytes() const {
  std::int64_t b = 0;
  for (const auto& e : comms)
    if (e.phase == CommEvent::Phase::kForward) b += e.bytes * e.count;
  return b;
}

std::int64_t RoutedPlan::backward_comm_bytes() const {
  std::int64_t b = 0;
  for (const auto& e : comms)
    if (e.phase == CommEvent::Phase::kBackward) b += e.bytes * e.count;
  return b;
}

std::int64_t RoutedPlan::overlappable_comm_bytes() const {
  std::int64_t b = 0;
  for (const auto& e : comms)
    if (e.overlappable) b += e.bytes * e.count;
  return b;
}

RoutedPlan route_plan(const ir::TapGraph& tg, const ShardingPlan& plan,
                      const PatternTable* table) {
  if (table == nullptr) {
    const PatternTable own(tg, plan.num_shards, plan.dp_replicas);
    return route_plan(tg, plan, &own);
  }
  RoutedPlan out;
  RoutingScratch scratch;
  route_plan_into(tg, plan, *table, &scratch, &out);
  return out;
}

RoutedPlan route_subgraph(const ir::TapGraph& tg, const ShardingPlan& plan,
                          const std::vector<ir::GraphNodeId>& members,
                          const ShardSpec& boundary,
                          const PatternTable* table) {
  if (table == nullptr) {
    const PatternTable own(tg, plan.num_shards, plan.dp_replicas);
    return route_subgraph(tg, plan, members, boundary, &own);
  }
  RoutedPlan out;
  RoutingScratch scratch;
  route_subgraph_into(tg, plan, SubgraphScope(tg, members), boundary, *table,
                      &scratch, &out);
  return out;
}

void route_subgraph_into(const ir::TapGraph& tg, const ShardingPlan& plan,
                         const SubgraphScope& scope,
                         const ShardSpec& boundary, const PatternTable& table,
                         RoutingScratch* scratch, RoutedPlan* out) {
  TAP_CHECK(scratch != nullptr && out != nullptr);
  Router r{tg, plan, &scope, boundary, table, *scratch, *out};
  r.run(scope.order);
}

void route_plan_into(const ir::TapGraph& tg, const ShardingPlan& plan,
                     const PatternTable& table, RoutingScratch* scratch,
                     RoutedPlan* out) {
  TAP_CHECK(scratch != nullptr && out != nullptr);
  Router r{tg, plan, nullptr, ShardSpec::replicate(), table, *scratch, *out};
  // Algorithm 3 walks the DAG from roots to leaves; a topological order
  // visits each node exactly once with all producers resolved.
  r.run(tg.cached_topo_order());
}

namespace {

/// One 32-bit word per layout: replicated, or the split axis.
constexpr std::int32_t kReplicatedWord = INT32_MIN;

std::int32_t layout_word(const ShardSpec& spec) {
  return spec.is_split() ? spec.axis : kReplicatedWord;
}

ShardSpec word_layout(std::int32_t word) {
  return word == kReplicatedWord ? ShardSpec::replicate()
                                 : ShardSpec::split(word);
}

}  // namespace

void FrontierState::add_producer(GraphNodeId id, const ShardSpec& layout,
                                 bool igrad_emitted) {
  const std::size_t at = words_.size();
  words_.resize(at + 4);
  std::int32_t* w = words_.data() + at;
  w[0] = static_cast<std::int32_t>(id);
  w[1] = layout_word(layout);
  w[2] = igrad_emitted ? 1 : 0;
  w[3] = 0;
  open_ = at + 3;
}

void FrontierState::add_materialized(const ShardSpec& layout) {
  TAP_CHECK_LT(open_, words_.size())
      << "a materialized layout needs a producer";
  ++words_[open_];
  words_.push_back(layout_word(layout));
}

void FrontierState::snapshot(std::span<const GraphNodeId> live,
                             const RoutedPlan& routed,
                             const RoutingScratch& scratch) {
  clear();
  for (GraphNodeId q : live) {
    const auto i = static_cast<std::size_t>(q);
    add_producer(q, routed.output_spec[i],
                 i < scratch.igrad_emitted.size() && scratch.igrad_emitted[i]);
    if (i < scratch.materialized.size())
      for (const ShardSpec& layout : scratch.materialized[i])
        add_materialized(layout);
  }
}

void FrontierState::restore(RoutedPlan* routed,
                            RoutingScratch* scratch) const {
  const std::size_t num_nodes = routed->output_spec.size();
  if (scratch->igrad_emitted.size() < num_nodes)
    scratch->igrad_emitted.resize(num_nodes, 0);
  if (scratch->materialized.size() < num_nodes)
    scratch->materialized.resize(num_nodes);
  for (std::size_t w = 0; w < words_.size();) {
    const auto id = static_cast<GraphNodeId>(words_[w]);
    const auto i = static_cast<std::size_t>(id);
    routed->output_spec[i] = word_layout(words_[w + 1]);
    if (words_[w + 2] != 0) {
      scratch->igrad_emitted[i] = 1;
      scratch->igrad_touched.push_back(id);
    }
    const auto k = static_cast<std::size_t>(words_[w + 3]);
    for (std::size_t t = 0; t < k; ++t) {
      scratch->materialized[i].push_back(word_layout(words_[w + 4 + t]));
      scratch->materialized_touched.push_back(id);
    }
    w += 4 + k;
  }
}

std::uint64_t FrontierState::hash() const {
  // Two words per multiply, finished by splitmix64.
  std::uint64_t h = words_.size();
  std::size_t w = 0;
  for (; w + 1 < words_.size(); w += 2) {
    h = (h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(words_[w]))
              << 32 |
              static_cast<std::uint32_t>(words_[w + 1]))) *
        0x9e3779b97f4a7c15ull;
  }
  if (w < words_.size())
    h = (h ^ static_cast<std::uint32_t>(words_[w])) * 0x9e3779b97f4a7c15ull;
  return util::splitmix64(h);
}

void FrontierRouter::bind(const ir::TapGraph& tg, const SubgraphScope& scope,
                          const ShardSpec& boundary,
                          const PatternTable& table) {
  tg_ = &tg;
  scope_ = &scope;
  table_ = &table;
  boundary_ = boundary;
  steps_ = 0;
  out_.num_shards = plan_.num_shards = table.num_shards();
  out_.dp_replicas = plan_.dp_replicas = table.dp_replicas();
  if (plan_.choice.size() != tg.num_nodes())
    plan_.choice.assign(tg.num_nodes(), 0);
  reset_route(tg.num_nodes(), &scope, boundary, scratch_, out_);

  // Each read node is live from just after its own position (-1 outside
  // the members) up to its last member consumer.
  const std::vector<GraphNodeId>& reads = scope.reads;
  const std::size_t n = scope.order.size();
  auto read_index = [&](GraphNodeId id) {
    return static_cast<std::size_t>(
        std::lower_bound(reads.begin(), reads.end(), id) - reads.begin());
  };
  std::vector<std::ptrdiff_t>& first = first_;
  std::vector<std::ptrdiff_t>& last = last_;
  first.assign(reads.size(), -1);
  last.assign(reads.size(), -1);
  for (std::size_t p = 0; p < n; ++p) {
    const GraphNodeId id = scope.order[p];
    first[read_index(id)] = static_cast<std::ptrdiff_t>(p);
    for (GraphNodeId q : tg.node(id).inputs)
      last[read_index(q)] = static_cast<std::ptrdiff_t>(p);
  }
  // Bucket each read into the positions it is live before, in read order.
  live_begin_.assign(n + 2, 0);
  for (std::size_t k = 0; k < reads.size(); ++k)
    for (std::ptrdiff_t p = first[k] + 1; p <= last[k]; ++p)
      ++live_begin_[static_cast<std::size_t>(p) + 1];
  for (std::size_t p = 0; p <= n; ++p) live_begin_[p + 1] += live_begin_[p];
  live_.resize(live_begin_[n + 1]);
  fill_.assign(live_begin_.begin(), live_begin_.end() - 1);
  for (std::size_t k = 0; k < reads.size(); ++k)
    for (std::ptrdiff_t p = first[k] + 1; p <= last[k]; ++p)
      live_[fill_[static_cast<std::size_t>(p)]++] = reads[k];
  initial_.snapshot(std::span(live_).first(live_begin_[1]), out_, scratch_);
}

void FrontierRouter::restore(const FrontierState& from, std::size_t p) {
  TAP_CHECK(scope_ != nullptr) << "FrontierRouter::restore before bind";
  TAP_CHECK_LT(p, scope_->order.size());
  rollback_scratch(scratch_, 0, 0);
  from.restore(&out_, &scratch_);
  position_ = p;
  igrad_ = scratch_.igrad_touched.size();
  materialized_ = scratch_.materialized_touched.size();
}

bool FrontierRouter::step(int choice, FrontierState* next) {
  // Undo the last step: the restored state's own entries stay. A step
  // writes the member's output layout, which no step at its position
  // reads.
  rollback_scratch(scratch_, igrad_, materialized_);
  out_.comms.clear();
  out_.edge_conversions.clear();
  const std::size_t p = position_;
  const GraphNodeId id = scope_->order[p];
  plan_.choice[static_cast<std::size_t>(id)] = choice;
  Router r{*tg_, plan_, scope_, boundary_, *table_, scratch_, out_};
  ++steps_;
  if (!r.step(id)) return false;
  layout_ = out_.output_spec[static_cast<std::size_t>(id)];
  next->snapshot(std::span(live_).subspan(live_begin_[p + 1],
                                          live_begin_[p + 2] -
                                              live_begin_[p + 1]),
                 out_, scratch_);
  return true;
}

SubgraphScope::SubgraphScope(const ir::TapGraph& tg,
                             const std::vector<ir::GraphNodeId>& members) {
  auto by_position = [&](GraphNodeId a, GraphNodeId b) {
    return tg.topo_position(a) < tg.topo_position(b);
  };
  order.assign(members.begin(), members.end());
  std::sort(order.begin(), order.end(), by_position);
  reads.assign(members.begin(), members.end());
  for (GraphNodeId id : members)
    for (GraphNodeId p : tg.node(id).inputs) reads.push_back(p);
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());

  // Exit: the member with the highest topological position that feeds a
  // consumer outside the set (membership by binary search over `order`).
  auto is_member = [&](GraphNodeId id) {
    return std::binary_search(order.begin(), order.end(), id, by_position);
  };
  exit = members.empty() ? ir::kInvalidGraphNode : members.back();
  int best_pos = -1;
  for (GraphNodeId id : members) {
    bool external = tg.consumers(id).empty();
    for (GraphNodeId c : tg.consumers(id)) external |= !is_member(c);
    if (external && tg.topo_position(id) > best_pos) {
      best_pos = tg.topo_position(id);
      exit = id;
    }
  }
}

ShardSpec subgraph_exit_spec(const RoutedPlan& routed,
                             const SubgraphScope& scope) {
  if (scope.exit == ir::kInvalidGraphNode) return ShardSpec::replicate();
  return routed.output_spec[static_cast<std::size_t>(scope.exit)];
}

ShardingPattern routed_pattern(const ir::TapGraph& tg,
                               const RoutedPlan& routed, ir::GraphNodeId id) {
  std::vector<ShardingPattern> pats =
      patterns_for(tg, id, routed.num_shards, routed.dp_replicas);
  const int k = routed.pattern_index[static_cast<std::size_t>(id)];
  TAP_CHECK(k >= 0 && static_cast<std::size_t>(k) < pats.size())
      << "pattern index " << k << " of '" << tg.node(id).name
      << "' is outside its " << pats.size() << "-pattern catalog at tp "
      << routed.num_shards << ", dp " << routed.dp_replicas;
  return std::move(pats[static_cast<std::size_t>(k)]);
}

std::string comm_reason(const ir::TapGraph& tg, const RoutedPlan& routed,
                        const CommEvent& e) {
  // Appends only (no operator+ chains), as in ShardingPattern::to_string.
  auto text = [](const char* prefix, const std::string& rest) {
    std::string s = prefix;
    s += rest;
    return s;
  };
  auto pattern = [&] { return routed_pattern(tg, routed, e.node).name; };
  auto reshard = [&](const char* prefix) {
    std::string s = prefix;
    s += e.from_spec.to_string();
    s += "->";
    s += e.to_spec.to_string();
    return s;
  };
  switch (e.why) {
    case CommReason::kPattern:
      return text("pattern:", pattern());
    case CommReason::kPatternGrad:
      return text("grad:", pattern());
    case CommReason::kReshard:
      return reshard("reshard ");
    case CommReason::kReshardGrad:
      return reshard("grad of reshard ");
    case CommReason::kWeightGrad:
      return text("wgrad:", pattern());
    case CommReason::kSecondaryWeightGrad:
      return "wgrad:secondary";
    case CommReason::kShardWeightGrad:
      return text("wgrad:dp-shard:", pattern());
    case CommReason::kInputGrad:
      return text("igrad:", pattern());
  }
  return {};
}

}  // namespace tap::sharding
