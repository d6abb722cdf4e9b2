// Pattern routing (§4.5, Algorithm 3): validate that a candidate plan's
// patterns chain into a connected root→leaf path, resolving every edge's
// tensor layout and inserting re-shard collectives where producer and
// consumer layouts disagree.
//
// Conversions the router may insert on an edge:
//   replicate → split       : free (each device slices locally)
//   split     → replicate   : AllGather  (mirrored by a backward
//                             ReduceScatter on the gradient path)
//   split(a)  → split(b)    : AllToAll   (mirrored by a backward AllToAll)
// A conversion to a split layout is only legal when the tensor axis
// divides evenly across the group; otherwise the plan is INVALID — this is
// the FALSE branch of Algorithm 3.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sharding/plan.h"

namespace tap::sharding {

/// Why the router emitted a collective. comm_reason() renders it as the
/// text sim traces show; <p> below is the name of the pattern the event's
/// node chose.
enum class CommReason : std::uint8_t {
  kPattern,              ///< "pattern:<p>": the pattern's forward collective
  kPatternGrad,          ///< "grad:<p>": its repeat on the gradient path
  kReshard,              ///< "reshard <from>-><to>": a layout conversion
  kReshardGrad,          ///< "grad of reshard <from>-><to>": its mirror
  kWeightGrad,           ///< "wgrad:<p>": replicated-weight gradients
  kSecondaryWeightGrad,  ///< "wgrad:secondary": a split node's other weights
  kShardWeightGrad,      ///< "wgrad:dp-shard:<p>": a tp shard across dp
  kInputGrad,            ///< "igrad:<p>": partial input gradients
};

/// One collective the routed plan requires.
struct CommEvent {
  enum class Phase : std::uint8_t { kForward, kBackward };

  Collective kind = Collective::kNone;
  /// Full logical bytes of the tensor being communicated (already scaled
  /// to the per-replica activation size when dp > 1).
  std::int64_t bytes = 0;
  int count = 1;
  Phase phase = Phase::kForward;
  /// Devices participating in the collective: the tp group (the plan's
  /// num_shards) for activation collectives, the dp group or the whole
  /// world for gradient sync. The router drops collectives over one
  /// device, so every routed event has a group of at least 2.
  int group = 0;
  /// True for collectives over the dp dimension, which is laid out across
  /// nodes: the cost model must use inter-node bandwidth even when the
  /// group is small.
  bool cross_node = false;
  /// Weight-gradient AllReduces can overlap with backward compute and be
  /// fused by gradient packing (§4.6/§4.7.1); layout conversions and
  /// partial-sum reductions on the activation path cannot.
  bool overlappable = false;
  ir::GraphNodeId node = ir::kInvalidGraphNode;
  /// For reshard events: the producer cluster of the converted edge.
  ir::GraphNodeId src = ir::kInvalidGraphNode;
  /// For reshard events (both directions): the layouts being converted
  /// between.
  ShardSpec from_spec = ShardSpec::replicate();
  ShardSpec to_spec = ShardSpec::replicate();
  /// Kept as a tag, not text, so a candidate route allocates nothing;
  /// comm_reason() renders it.
  CommReason why = CommReason::kPattern;
};

/// One edge whose tensor must change layout between producer and consumer
/// clusters — recorded for EVERY such edge, including consumers that reuse
/// a conversion another consumer already paid for (the rewriter wires each
/// of them through the shared conversion node).
struct EdgeConversion {
  ir::GraphNodeId src = ir::kInvalidGraphNode;
  ir::GraphNodeId dst = ir::kInvalidGraphNode;
  ShardSpec from = ShardSpec::replicate();
  ShardSpec to = ShardSpec::replicate();
};

struct RoutedPlan {
  bool valid = false;
  std::string error;
  /// The mesh the plan was routed for (copied from the ShardingPlan).
  int num_shards = 1;
  int dp_replicas = 1;
  /// Resolved output layout per GraphNode. A subgraph route into a reused
  /// RoutedPlan defines only the members' and their producers' entries
  /// (see route_subgraph_into); every other route defines all of them.
  std::vector<ShardSpec> output_spec;
  /// Resolved pattern per GraphNode (index into the mesh's PatternTable,
  /// == patterns_for(tg, id, num_shards, dp_replicas)), with the same
  /// coverage as output_spec (members only, for a reused subgraph
  /// route).
  std::vector<int> pattern_index;
  std::vector<CommEvent> comms;
  /// Layout changes per edge (see EdgeConversion).
  std::vector<EdgeConversion> edge_conversions;

  std::int64_t total_comm_bytes() const;
  std::int64_t forward_comm_bytes() const;
  std::int64_t backward_comm_bytes() const;
  std::int64_t overlappable_comm_bytes() const;
};

/// What routing one subgraph visits and reads. It depends only on the
/// graph and the member set, so the planner builds it once per family
/// and every candidate route over that family reuses it: a candidate then
/// costs O(members) with no sorting.
struct SubgraphScope {
  SubgraphScope(const ir::TapGraph& tg,
                const std::vector<ir::GraphNodeId>& members);

  /// Members by topological position: the router's visit order.
  std::vector<ir::GraphNodeId> order;
  /// Members and their producers, each once: the output_spec entries a
  /// route reads, which it resets to the boundary layout first.
  std::vector<ir::GraphNodeId> reads;
  /// The member whose layout the subgraph hands downstream: the last one
  /// in topological order with a consumer outside the members or none at
  /// all, else the last member listed. Invalid when there are no members.
  ir::GraphNodeId exit = ir::kInvalidGraphNode;
};

/// Reusable working buffers for the router. One route allocates them; a
/// second route through the same scratch reuses the capacity, touching
/// only the entries the previous route dirtied — this is what makes the
/// planner's per-candidate routing allocation-free in steady state.
/// Default-constructed scratch is valid for any graph.
struct RoutingScratch {
  /// Producers whose partial input-gradient AllReduce is already emitted,
  /// indexed by GraphNodeId. `igrad_touched` logs every entry set, in
  /// order, so the next route clears them in O(touched), not O(V), and a
  /// FrontierRouter undoes its last step by truncating the log.
  std::vector<char> igrad_emitted;
  std::vector<ir::GraphNodeId> igrad_touched;
  /// Layouts already materialized per producer (AllGather dedup).
  /// `materialized_touched` logs the producer of every layout appended,
  /// in order, with the same reset and roll-back discipline.
  std::vector<std::vector<ShardSpec>> materialized;
  std::vector<ir::GraphNodeId> materialized_touched;
};

/// Routes `plan` over the whole TapGraph, reading its pattern indices
/// against `table`, which must be the PatternTable of the plan's mesh; a
/// null `table` builds PatternTable(tg, plan.num_shards,
/// plan.dp_replicas). Always returns a RoutedPlan; check `valid` /
/// `error`.
RoutedPlan route_plan(const ir::TapGraph& tg, const ShardingPlan& plan,
                      const PatternTable* table = nullptr);

/// Routes only the GraphNodes in `members` (one pruned-subgraph family
/// instance); tensors entering from outside the subgraph are assumed to
/// arrive in layout `boundary`. This is what makes TAP's candidate
/// evaluation O(E / 2CL) (Table 2): the 729 T5-block candidates each touch
/// one block, not the whole model. For chained blocks, evaluate in steady
/// state: route once with a replicated boundary to learn the exit layout,
/// then score with boundary = exit layout. `table` as for route_plan.
RoutedPlan route_subgraph(
    const ir::TapGraph& tg, const ShardingPlan& plan,
    const std::vector<ir::GraphNodeId>& members,
    const ShardSpec& boundary = ShardSpec::replicate(),
    const PatternTable* table = nullptr);

/// route_subgraph into caller-owned buffers: `out`'s vectors and
/// `scratch` are reused instead of reallocated, so repeated candidate
/// evaluation (FamilySearchContext::stage) allocates nothing once
/// capacities warm up. `out` must not alias a RoutedPlan reachable from
/// `scratch`.
///
/// When `out` already holds vectors sized for `tg` (an earlier route into
/// it), only the entries this route reads are reset — the scope's
/// `reads` in output_spec and its members in pattern_index — so the route
/// costs O(members), not O(V). What it defines then matches
/// route_subgraph: valid/error, comms, edge_conversions, and output_spec
/// and pattern_index at every member (output_spec also at every producer
/// of a member). Other entries keep what earlier routes left. A fresh or
/// differently sized `out` is filled completely, as route_subgraph does.
void route_subgraph_into(const ir::TapGraph& tg, const ShardingPlan& plan,
                         const SubgraphScope& scope,
                         const ShardSpec& boundary, const PatternTable& table,
                         RoutingScratch* scratch, RoutedPlan* out);

/// route_plan into caller-owned buffers (same contract as
/// route_subgraph_into).
void route_plan_into(const ir::TapGraph& tg, const ShardingPlan& plan,
                     const PatternTable& table, RoutingScratch* scratch,
                     RoutedPlan* out);

/// The router state the rest of a route reads before one visit position.
/// It holds, for every live producer, its output layout, its materialized
/// layouts in the order they were appended and its igrad_emitted flag. A
/// producer is live before position p when it is a member visited before
/// p, or a read node outside the members, and has a member consumer at p
/// or later. Routing a position reads only its choice and its producers'
/// state, and a producer's state changes only when one of its consumers
/// is routed. So two routes of one subgraph and boundary that reach a
/// position in equal states route every suffix of choices the same,
/// event for event.
///
/// Producers keep the order they were added in. Two states built over the
/// same live list compare equal exactly when every producer's entries do.
/// Copying, comparing and hashing cost O(state size) and reuse capacity.
class FrontierState {
 public:
  void clear() {
    words_.clear();
    open_ = 0;
  }

  /// clear(), then the producers in `live` as `routed` and `scratch` hold
  /// them.
  void snapshot(std::span<const ir::GraphNodeId> live,
                const RoutedPlan& routed, const RoutingScratch& scratch);
  /// Writes the state into a route's buffers: each producer's output
  /// layout into `routed->output_spec`, and its materialized layouts and
  /// igrad flag into `scratch`, logged as the router logs its own writes.
  /// `scratch` must hold no entry of these producers (roll it back
  /// first); `routed->output_spec` must cover every node.
  void restore(RoutedPlan* routed, RoutingScratch* scratch) const;

  std::uint64_t hash() const;
  friend bool operator==(const FrontierState& a, const FrontierState& b) {
    return a.words_ == b.words_;
  }

 private:
  /// Appends producer `id`. The materialized layouts added next are its.
  void add_producer(ir::GraphNodeId id, const ShardSpec& layout,
                    bool igrad_emitted);
  void add_materialized(const ShardSpec& layout);

  /// Per producer: id, layout, igrad flag, count k, then k layouts.
  std::vector<std::int32_t> words_;
  std::size_t open_ = 0;  ///< index of the last producer's count
};

/// Routes one member of a subgraph at a time from a restored
/// FrontierState: the step of a search over frontier states
/// (core::FrontierDpPolicy). restore() loads the state before a
/// position; each step() then routes the member there with one choice,
/// with the router route_subgraph_into runs, from that same state, and
/// snapshots the state before the next position. It never re-routes a
/// prefix. Allocation-free once the capacities have grown.
class FrontierRouter {
 public:
  /// Binds to a subgraph and boundary: O(reads + Σ producer lifetimes).
  /// `tg`, `scope` and `table` must outlive the steps.
  void bind(const ir::TapGraph& tg, const SubgraphScope& scope,
            const ShardSpec& boundary, const PatternTable& table);

  /// The state before position 0: the members' outside producers, at the
  /// boundary layout.
  const FrontierState& initial() const { return initial_; }

  /// Loads `from`, the state before visit position `p`: the next steps
  /// route the member at `p`, each from this state.
  void restore(const FrontierState& from, std::size_t p);
  /// Routes the member at the restored position with pattern `choice`.
  /// Returns false when it does not route. Otherwise events() are the
  /// events the step emitted, layout() is the member's output layout, and
  /// `*next` is the state before the next position.
  bool step(int choice, FrontierState* next);
  std::span<const CommEvent> events() const { return out_.comms; }
  /// The output layout of the member the last step routed.
  const ShardSpec& layout() const { return layout_; }
  /// Steps taken since bind().
  std::size_t steps() const { return steps_; }

 private:
  const ir::TapGraph* tg_ = nullptr;
  const SubgraphScope* scope_ = nullptr;
  const PatternTable* table_ = nullptr;
  ShardSpec boundary_;
  ShardSpec layout_;
  ShardingPlan plan_;
  RoutingScratch scratch_;
  RoutedPlan out_;
  /// live_[live_begin_[p] .. live_begin_[p + 1]): the live producers
  /// before position p, in the scope's read order.
  std::vector<ir::GraphNodeId> live_;
  std::vector<std::size_t> live_begin_;
  /// bind()'s per-read positions: its own (-1 outside the members) and
  /// its last member consumer's.
  std::vector<std::ptrdiff_t> first_, last_;
  std::vector<std::size_t> fill_;
  FrontierState initial_;
  std::size_t position_ = 0;  ///< the restored position
  std::size_t igrad_ = 0, materialized_ = 0;  ///< log lengths it left
  std::size_t steps_ = 0;
};

/// Layout a routed subgraph hands to downstream consumers: the output spec
/// of `scope.exit` (replicated for an empty scope).
ShardSpec subgraph_exit_spec(const RoutedPlan& routed,
                             const SubgraphScope& scope);

/// The pattern `routed` chose for GraphNode `id`, read from the catalog
/// of the routed plan's own mesh (patterns_for(tg, id, routed.num_shards,
/// routed.dp_replicas)). Checks that the chosen index is in that catalog.
ShardingPattern routed_pattern(const ir::TapGraph& tg,
                               const RoutedPlan& routed, ir::GraphNodeId id);

/// The text of `e.why` ("pattern:split_col", "reshard S(0)->R",
/// "wgrad:dp-shard:split_row", ...) for an event of `routed`. Built on
/// demand — sim traces and tests call it; the search never does.
std::string comm_reason(const ir::TapGraph& tg, const RoutedPlan& routed,
                        const CommEvent& e);

}  // namespace tap::sharding
