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
  /// (nothing to send, or a group of one device).
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

void RouteCursor::bind(const ir::TapGraph& tg, const SubgraphScope& scope,
                       const ShardSpec& boundary, const PatternTable& table) {
  tg_ = &tg;
  scope_ = &scope;
  table_ = &table;
  boundary_ = boundary;
  reset_route(tg.num_nodes(), &scope, boundary, scratch_, out_);
  out_.valid = false;
  out_.error.clear();
  out_.num_shards = 0;  // no route yet: the first one starts at position 0
  choice_.resize(scope.order.size());
  checkpoints_.resize(scope.order.size() + 1);
  checkpoints_[0] = Checkpoint{};
  routed_ = 0;
  resumed_comms_ = 0;
  spliced_comms_ = 0;
  ref_comms_at_splice_ = 0;
  steps_ = 0;
  ref_.kept = false;
  position_.clear();  // rebuilt with the first reference
}

const RoutedPlan& RouteCursor::route(const ShardingPlan& plan) {
  TAP_CHECK(scope_ != nullptr) << "RouteCursor::route before bind";
  TAP_CHECK_EQ(plan.choice.size(), tg_->num_nodes());
  const std::vector<GraphNodeId>& order = scope_->order;
  const std::size_t n = order.size();
  std::size_t k = 0;
  if (plan.num_shards == out_.num_shards &&
      plan.dp_replicas == out_.dp_replicas) {
    while (k < routed_ && choice_[k] == choice_at(plan, k)) ++k;
  }
  out_.num_shards = plan.num_shards;
  out_.dp_replicas = plan.dp_replicas;
  if (k == n) {  // same choices as the last, complete route
    resumed_comms_ = spliced_comms_ = out_.comms.size();
    out_.valid = true;
    return out_;
  }
  // A splice may start only past the last position whose choice differs
  // from the reference's.
  std::size_t splice_from = kNone;
  if (ref_.kept && plan.num_shards == ref_.out.num_shards &&
      plan.dp_replicas == ref_.out.dp_replicas) {
    splice_from = n;
    while (splice_from > 0 &&
           choice_at(plan, splice_from - 1) == ref_.choice[splice_from - 1])
      --splice_from;
  }
  // Roll back to the state before position k was routed: the logs are
  // append-only, so truncating them undoes positions k and later.
  const Checkpoint& c = checkpoints_[k];
  out_.comms.resize(c.comms);
  out_.edge_conversions.resize(c.edges);
  rollback_scratch(scratch_, c.igrad, c.materialized);
  resumed_comms_ = c.comms;
  out_.valid = false;
  out_.error.clear();
  Router r{*tg_, plan, scope_, boundary_, *table_, scratch_, out_};
  for (routed_ = k; routed_ < n; ++routed_) {
    Checkpoint& next = checkpoints_[routed_];
    next.comms = out_.comms.size();
    next.edges = out_.edge_conversions.size();
    next.igrad = scratch_.igrad_touched.size();
    next.materialized = scratch_.materialized_touched.size();
    if (routed_ >= splice_from) {
      if (routed_ == std::max(k, splice_from)) collect_live(routed_);
      if (matches_reference(routed_)) {
        splice();
        return out_;
      }
    }
    choice_[routed_] = choice_at(plan, routed_);
    ++steps_;
    if (!r.step(order[routed_])) return out_;  // valid up to routed_
    if (routed_ >= splice_from) advance_live(routed_);
  }
  checkpoints_[n] = {out_.comms.size(), out_.edge_conversions.size(),
                     scratch_.igrad_touched.size(),
                     scratch_.materialized_touched.size()};
  spliced_comms_ = out_.comms.size();
  out_.valid = true;
  return out_;
}

void RouteCursor::keep_reference() {
  const std::size_t n = scope_ != nullptr ? scope_->order.size() : 0;
  TAP_CHECK(out_.valid && routed_ == n) << "keep_reference needs a valid route";
  const std::size_t num_nodes = tg_->num_nodes();
  if (position_.size() != num_nodes) {  // the first reference since bind()
    ref_.igrad_log.clear();
    ref_.materialized_log.clear();
    ref_.igrad_position.assign(num_nodes, kNone);
    ref_.materialized.resize(num_nodes);
    for (std::vector<Materialized>& list : ref_.materialized) list.clear();
    position_.assign(num_nodes, -1);
    last_use_.assign(num_nodes, -1);
    for (std::size_t i = 0; i < n; ++i) {
      const GraphNodeId id = scope_->order[i];
      position_[static_cast<std::size_t>(id)] = static_cast<std::ptrdiff_t>(i);
      for (GraphNodeId p : tg_->node(id).inputs)
        last_use_[static_cast<std::size_t>(p)] = static_cast<std::ptrdiff_t>(i);
    }
  }
  // Forget the old reference's per-node state through its logs.
  for (GraphNodeId q : ref_.igrad_log)
    ref_.igrad_position[static_cast<std::size_t>(q)] = kNone;
  for (GraphNodeId q : ref_.materialized_log)
    ref_.materialized[static_cast<std::size_t>(q)].clear();

  ref_.kept = true;
  ref_.out = out_;
  ref_.choice = choice_;
  ref_.checkpoints = checkpoints_;
  ref_.igrad_log = scratch_.igrad_touched;
  ref_.materialized_log = scratch_.materialized_touched;
  // Log entry j was appended while routing the position p with
  // checkpoints[p] <= j < checkpoints[p + 1].
  std::size_t p = 0;
  for (std::size_t j = 0; j < ref_.igrad_log.size(); ++j) {
    while (checkpoints_[p + 1].igrad <= j) ++p;
    ref_.igrad_position[static_cast<std::size_t>(ref_.igrad_log[j])] = p;
  }
  p = 0;
  for (std::size_t j = 0; j < ref_.materialized_log.size(); ++j) {
    while (checkpoints_[p + 1].materialized <= j) ++p;
    const auto q = static_cast<std::size_t>(ref_.materialized_log[j]);
    std::vector<Materialized>& list = ref_.materialized[q];
    list.push_back({p, scratch_.materialized[q][list.size()]});
  }
}

RoutedPlan RouteCursor::release_reference() {
  TAP_CHECK(ref_.kept) << "release_reference without a reference";
  ref_.kept = false;
  return std::move(ref_.out);
}

bool RouteCursor::matches_reference(std::size_t p) {
  // Most probes differ from the reference in a layout: see that first.
  for (GraphNodeId q : live_) {
    const auto i = static_cast<std::size_t>(q);
    if (!(out_.output_spec[i] == ref_.out.output_spec[i])) return false;
  }
  state_.snapshot(live_, out_, scratch_);
  // The reference's state before p: its layouts, the igrad flags it set
  // before p and the layouts it materialized before p (its lists are in
  // position order).
  reference_state_.clear();
  for (GraphNodeId q : live_) {
    const auto i = static_cast<std::size_t>(q);
    reference_state_.add_producer(q, ref_.out.output_spec[i],
                                  ref_.igrad_position[i] < p);
    for (const Materialized& m : ref_.materialized[i]) {
      if (m.position >= p) break;
      reference_state_.add_materialized(m.layout);
    }
  }
  return state_ == reference_state_;
}

void RouteCursor::splice() {
  const std::vector<GraphNodeId>& order = scope_->order;
  const std::size_t p = routed_, n = order.size();
  const Checkpoint here = checkpoints_[p];
  const Checkpoint& there = ref_.checkpoints[p];
  const RoutedPlan& ref = ref_.out;
  auto append_tail = [](const auto& from, std::size_t at, auto* to) {
    to->insert(to->end(), from.begin() + static_cast<std::ptrdiff_t>(at),
               from.end());
  };
  append_tail(ref.comms, there.comms, &out_.comms);
  append_tail(ref.edge_conversions, there.edges, &out_.edge_conversions);
  for (std::size_t i = p; i < n; ++i) {
    const auto id = static_cast<std::size_t>(order[i]);
    out_.output_spec[id] = ref.output_spec[id];
    out_.pattern_index[id] = ref.pattern_index[id];
    choice_[i] = ref_.choice[i];
  }
  for (std::size_t i = p + 1; i <= n; ++i) {
    const Checkpoint& r = ref_.checkpoints[i];
    Checkpoint& c = checkpoints_[i];
    c.comms = here.comms + (r.comms - there.comms);
    c.edges = here.edges + (r.edges - there.edges);
    c.igrad = here.igrad + (r.igrad - there.igrad);
    c.materialized = here.materialized + (r.materialized - there.materialized);
  }
  // The router state the tail's steps leave: the reference's log entries
  // past p, appended in order. The live producers' lists agree with the
  // reference's up to p, and every other producer of the tail starts
  // empty, so each entry is the next one of its producer's list.
  const std::size_t num_nodes = tg_->num_nodes();
  if (scratch_.igrad_emitted.size() < num_nodes)
    scratch_.igrad_emitted.resize(num_nodes, 0);
  if (scratch_.materialized.size() < num_nodes)
    scratch_.materialized.resize(num_nodes);
  const std::vector<GraphNodeId>& igrad_log = ref_.igrad_log;
  for (std::size_t j = there.igrad; j < igrad_log.size(); ++j) {
    scratch_.igrad_emitted[static_cast<std::size_t>(igrad_log[j])] = 1;
    scratch_.igrad_touched.push_back(igrad_log[j]);
  }
  const std::vector<GraphNodeId>& layout_log = ref_.materialized_log;
  for (std::size_t j = there.materialized; j < layout_log.size(); ++j) {
    const auto q = static_cast<std::size_t>(layout_log[j]);
    std::vector<ShardSpec>& list = scratch_.materialized[q];
    list.push_back(ref_.materialized[q][list.size()].layout);
    scratch_.materialized_touched.push_back(layout_log[j]);
  }
  spliced_comms_ = here.comms;
  ref_comms_at_splice_ = there.comms;
  routed_ = n;
  out_.valid = true;
}

void RouteCursor::collect_live(std::size_t p) {
  const auto at = static_cast<std::ptrdiff_t>(p);
  live_.clear();
  for (GraphNodeId q : scope_->reads) {
    const auto i = static_cast<std::size_t>(q);
    if (position_[i] < at && last_use_[i] >= at) live_.push_back(q);
  }
}

void RouteCursor::advance_live(std::size_t p) {
  const auto at = static_cast<std::ptrdiff_t>(p);
  std::size_t kept = 0;
  for (GraphNodeId q : live_)
    if (last_use_[static_cast<std::size_t>(q)] > at) live_[kept++] = q;
  live_.resize(kept);
  const GraphNodeId id = scope_->order[p];
  if (last_use_[static_cast<std::size_t>(id)] > at) live_.push_back(id);
}

int RouteCursor::choice_at(const ShardingPlan& plan,
                           std::size_t position) const {
  return plan.choice[static_cast<std::size_t>(scope_->order[position])];
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

SubgraphScope::SubgraphScope(const ir::TapGraph& tg)
    : order(tg.cached_topo_order()) {
  reads.resize(tg.num_nodes());
  for (std::size_t i = 0; i < reads.size(); ++i)
    reads[i] = static_cast<GraphNodeId>(i);
  // Every consumer is a member, so the exit is the last leaf in
  // topological order (the members constructor's rule).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (tg.consumers(*it).empty()) {
      exit = *it;
      break;
    }
  }
}

ShardSpec subgraph_exit_spec(const RoutedPlan& routed,
                             const SubgraphScope& scope) {
  if (scope.exit == ir::kInvalidGraphNode) return ShardSpec::replicate();
  return routed.output_spec[static_cast<std::size_t>(scope.exit)];
}

std::string comm_reason(const ir::TapGraph& tg, const RoutedPlan& routed,
                        const CommEvent& e) {
  // Appends only (no operator+ chains), as in ShardingPattern::to_string.
  auto text = [](const char* prefix, const std::string& rest) {
    std::string s = prefix;
    s += rest;
    return s;
  };
  auto pattern = [&]() -> std::string {
    const std::vector<ShardingPattern> pats =
        patterns_for(tg, e.node, routed.num_shards, routed.dp_replicas);
    return pats[static_cast<std::size_t>(
                    routed.pattern_index[static_cast<std::size_t>(e.node)])]
        .name;
  };
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
