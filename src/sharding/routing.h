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
  /// Devices participating in the collective (tp group for activation
  /// collectives, dp group or the whole world for gradient sync). 0 means
  /// "the plan's tp group" for backward compatibility.
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
  /// The whole graph in O(V): order = tg.cached_topo_order() (the visit
  /// order of route_plan_into), reads = every node. Equal to the scope
  /// over every node id.
  explicit SubgraphScope(const ir::TapGraph& tg);

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
  /// RouteCursor undoes a suffix of them by truncating the log.
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

/// Routes a sequence of candidate plans over one subgraph, boundary and
/// pattern table, re-routing each from the first visited member whose
/// choice differs from the previous route's. The exhaustive family search
/// walks its candidates with the last-visited member changing fastest, so
/// most of a candidate's route — the members visited before the first
/// change — is shared with the last one and is not repeated.
///
/// Per visit position the cursor keeps the choice routed there and a
/// checkpoint: the lengths of `comms`, `edge_conversions` and the
/// scratch's igrad and materialized logs before that member was routed.
/// Every one of them only grows during a route, so truncating them to a
/// checkpoint restores the state before that position exactly. A route
/// that fails at position k leaves positions before k valid.
///
/// A cursor may also keep one valid route as its reference
/// (keep_reference). A later route that has routed every position whose
/// choice differs from the reference's stops at the first position p
/// where the router state agrees with the reference's at every live
/// producer (a member before p, or a read node outside the members, with
/// a member consumer at p or later): the same output layout, the same
/// materialized layouts and the same igrad_emitted flag. Routing a
/// position reads only its choice and its producers' state, and the
/// state of a producer changes only when one of its consumers is routed,
/// so from p on the route would repeat the reference's step for step. It
/// takes the reference's tail instead — events, conversions, layouts,
/// patterns, checkpoints and router-state log entries — and ends in the
/// state routing the tail would have left.
///
/// route() defines what route_subgraph_into with the same arguments
/// defines: valid/error, comms, edge_conversions, and output_spec and
/// pattern_index at every member (for a valid route). Allocation-free
/// once the capacities have grown.
class RouteCursor {
 public:
  /// Binds to a subgraph: O(scope reads) once the buffers are sized for
  /// `tg`. `tg`, `scope` and `table` must outlive the routes. Drops the
  /// reference.
  void bind(const ir::TapGraph& tg, const SubgraphScope& scope,
            const ShardSpec& boundary, const PatternTable& table);

  /// Routes `plan`'s member choices (the rest of `plan` is not read).
  const RoutedPlan& route(const ShardingPlan& plan);

  /// Makes the last route, which must be valid, the reference later
  /// routes splice onto. O(V + members + events).
  void keep_reference();
  /// The reference route (after keep_reference()).
  const RoutedPlan& reference() const { return ref_.out; }
  /// Moves the reference route out: the cursor keeps no reference.
  RoutedPlan release_reference();

  const RoutedPlan& routed() const { return out_; }
  const ShardSpec& boundary() const { return boundary_; }
  /// comms.size() at the position the last route() resumed from: the
  /// events before it are those of the route before.
  std::size_t resumed_comms() const { return resumed_comms_; }
  /// Where the last route() took the reference's tail: the index in
  /// routed().comms from which the events are the reference's events
  /// from reference_comms_at_splice() on. comms.size() (and no events)
  /// when it took no tail.
  std::size_t spliced_comms() const { return spliced_comms_; }
  std::size_t reference_comms_at_splice() const { return ref_comms_at_splice_; }
  /// Nodes routed (Router steps taken) since bind(): what the routes
  /// actually cost, against scope.order.size() per route from scratch.
  /// Positions taken from the reference are not routed.
  std::size_t steps() const { return steps_; }
  /// The visit position the last route() failed at, or scope.order.size()
  /// when it was valid. A route at this boundary up to a position reads
  /// only the choices at and before it, so every plan with the same
  /// choices there fails at the same position.
  std::size_t failed_at() const { return routed_; }

 private:
  struct Checkpoint {
    std::size_t comms = 0;
    std::size_t edges = 0;
    std::size_t igrad = 0;
    std::size_t materialized = 0;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// A layout in a producer's materialized list, and the visit position
  /// whose route appended it.
  struct Materialized {
    std::size_t position;
    ShardSpec layout;
  };
  /// The reference route and what a splice check or a splice reads of
  /// it.
  struct Reference {
    bool kept = false;
    RoutedPlan out;
    std::vector<int> choice;              ///< per visit position
    std::vector<Checkpoint> checkpoints;  ///< per visit position, and end
    /// The scratch logs of the route.
    std::vector<ir::GraphNodeId> igrad_log, materialized_log;
    /// Per node: the visit position whose route set igrad_emitted (kNone
    /// for none), and the materialized list.
    std::vector<std::size_t> igrad_position;
    std::vector<std::vector<Materialized>> materialized;
  };

  /// `plan`'s choice for the member at visit position `position`.
  int choice_at(const ShardingPlan& plan, std::size_t position) const;
  /// True when the router state before position `p` (routed_ == p) agrees
  /// with the reference's at every node of `live_`.
  bool matches_reference(std::size_t p) const;
  /// Takes the reference's tail from position routed_ on.
  void splice();
  /// live_ = the live producers before position `p`.
  void collect_live(std::size_t p);
  /// live_ before position `p` + 1, from live_ before `p`.
  void advance_live(std::size_t p);

  const ir::TapGraph* tg_ = nullptr;
  const SubgraphScope* scope_ = nullptr;
  const PatternTable* table_ = nullptr;
  ShardSpec boundary_;
  std::vector<int> choice_;              ///< per visit position
  std::vector<Checkpoint> checkpoints_;  ///< per visit position, and end
  std::size_t routed_ = 0;               ///< positions routed by the last route
  std::size_t resumed_comms_ = 0;
  std::size_t spliced_comms_ = 0;
  std::size_t ref_comms_at_splice_ = 0;
  std::size_t steps_ = 0;
  RoutingScratch scratch_;
  RoutedPlan out_;
  Reference ref_;
  /// Per node, built with the first reference after bind(): its visit
  /// position (-1 outside the members) and the last position of a member
  /// consumer (-1 for none).
  std::vector<std::ptrdiff_t> position_, last_use_;
  std::vector<ir::GraphNodeId> live_;
};

/// Layout a routed subgraph hands to downstream consumers: the output spec
/// of `scope.exit` (replicated for an empty scope).
ShardSpec subgraph_exit_spec(const RoutedPlan& routed,
                             const SubgraphScope& scope);

/// The text of `e.why` ("pattern:split_col", "reshard S(0)->R",
/// "wgrad:dp-shard:split_row", ...) for an event of `routed`. Built on
/// demand — sim traces and tests call it; the search never does.
std::string comm_reason(const ir::TapGraph& tg, const RoutedPlan& routed,
                        const CommEvent& e);

}  // namespace tap::sharding
