#include "core/family_search.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cost/cost_model.h"
#include "sharding/enumerate.h"
#include "sharding/routing.h"
#include "util/check.h"
#include "util/hash.h"

namespace tap::core {

using pruning::SubgraphFamily;
using sharding::FamilyPlanEnumerator;
using sharding::ShardingPlan;

FamilyScope::FamilyScope(const FamilySearchContext& ctx,
                         const SubgraphFamily& family)
    : family_(family),
      routing_(ctx.graph(), family.member_nodes),
      window_(ctx.graph(), &family.member_nodes, ctx.options().num_shards,
              ctx.options().dp_replicas, ctx.options().cluster) {
  const ir::TapGraph& tg = ctx.graph();
  const int shards = ctx.options().num_shards;
  const std::vector<ir::GraphNodeId>& members = family.member_nodes;
  const std::vector<ir::GraphNodeId>& order = routing_.order;
  TAP_CHECK_EQ(order.size(), members.size());
  at_.resize(order.size());
  position_.resize(members.size());
  exit_ = order.size();
  for (std::size_t j = 0; j < members.size(); ++j) {
    const auto at = std::lower_bound(
        order.begin(), order.end(), members[j],
        [&](ir::GraphNodeId a, ir::GraphNodeId b) {
          return tg.topo_position(a) < tg.topo_position(b);
        });
    const auto p = static_cast<std::size_t>(at - order.begin());
    position_[j] = p;
    at_[p].window_replicated = window_.term(j, false);
    at_[p].window_split = window_.term(j, true);
    if (members[j] == routing_.exit) exit_ = p;
  }
  for (std::size_t p = 0; p < at_.size(); ++p) {
    Position& pos = at_[p];
    const ir::GraphNodeId id = order[p];
    const std::vector<sharding::ShardingPattern>& row = ctx.table().at(id);
    pos.choices = static_cast<int>(row.size());
    pos.bytes_first = bytes_.size();
    for (const sharding::ShardingPattern& pat : row) {
      std::int64_t total = 0;
      for (const ir::WeightOp& w : tg.weights(id)) {
        std::int64_t bytes = w.bytes;
        if (pat.weight.is_split() &&
            pat.weight.fits(tg.weight_shape(w), shards)) {
          bytes /= shards;
        }
        total += bytes;
      }
      bytes_.push_back(total);
    }
  }
}

std::int64_t FamilyScope::weight_bytes(const ShardingPlan& plan) const {
  std::int64_t total = 0;
  for (std::size_t p = 0; p < at_.size(); ++p) {
    const ir::GraphNodeId id = routing_.order[p];
    total += weight_bytes(p, plan.choice[static_cast<std::size_t>(id)]);
  }
  return total;
}

sharding::RoutedPlan* FamilySearchContext::route(const ShardingPlan& plan,
                                                const FamilyScope& scope,
                                                cost::CostArena* arena,
                                                std::int64_t* routed) const {
  const auto members =
      static_cast<std::int64_t>(scope.family().member_nodes.size());
  sharding::route_subgraph_into(tg_, plan, scope.routing(),
                                sharding::ShardSpec::replicate(), table_,
                                &arena->routing, &arena->probe);
  *routed += members;
  if (!arena->probe.valid) return nullptr;
  const auto exit_spec =
      sharding::subgraph_exit_spec(arena->probe, scope.routing());
  // A replicated exit layout would route the probe again (same plan, same
  // boundary): the probe is the steady state.
  if (exit_spec == sharding::ShardSpec::replicate()) return &arena->probe;
  sharding::route_subgraph_into(tg_, plan, scope.routing(), exit_spec, table_,
                                &arena->routing, &arena->routed);
  *routed += members;
  return arena->routed.valid ? &arena->routed : nullptr;
}

bool FamilySearchContext::stage(const ShardingPlan& plan,
                                const SubgraphFamily& family,
                                cost::CostArena* arena,
                                std::int64_t* weight_bytes_out,
                                SearchStats* stats) const {
  const FamilyScope scope(*this, family);
  stats->nodes_visited +=
      static_cast<std::int64_t>(family.member_nodes.size());
  std::int64_t routed = 0;
  sharding::RoutedPlan* steady = route(plan, scope, arena, &routed);
  if (steady == nullptr) return false;
  ++stats->cost_queries;
  arena->batch.add_candidate(steady, scope.window().window(*steady, table_));
  *weight_bytes_out = scope.weight_bytes(plan);
  return true;
}

bool FamilySearchContext::evaluate(const ShardingPlan& plan,
                                   const FamilyScope& scope, FamilyScore* out,
                                   SearchStats* stats,
                                   FamilySearchWork* work) const {
  stats->nodes_visited +=
      static_cast<std::int64_t>(scope.family().member_nodes.size());
  const sharding::RoutedPlan* steady =
      route(plan, scope, &cost::tls_cost_arena(), &work->nodes_routed);
  if (steady == nullptr) return false;
  ++stats->cost_queries;
  out->comm = cost::comm_cost(*steady, opts_.cluster,
                              scope.window().window(*steady, table_))
                  .total();
  out->weight_bytes = scope.weight_bytes(plan);
  return true;
}

std::int64_t first_best_rank(std::span<const FamilyScore> scores,
                             std::span<const char> valid) {
  TAP_CHECK_EQ(scores.size(), valid.size());
  std::int64_t best = -1;
  for (std::size_t r = 0; r < scores.size(); ++r) {
    if (valid[r] &&
        (best < 0 ||
         scores[r].better_than(scores[static_cast<std::size_t>(best)])))
      best = static_cast<std::int64_t>(r);
  }
  return best;
}

FamilySearchOutcome ExhaustivePolicy::search(
    const FamilySearchContext& ctx, const SubgraphFamily& family,
    const ShardingPlan& base) const {
  FamilySearchOutcome out;
  const FamilyScope scope(ctx, family);
  const std::vector<ir::GraphNodeId>& members = family.member_nodes;
  FamilyPlanEnumerator enumerator(ctx.table(), family);
  ShardingPlan scratch = base;
  std::vector<int> choice;
  FamilyScore best;
  // The winner is kept by its Algorithm 2 rank and decoded at the end, so
  // the candidate buffer becomes the winner's.
  std::int64_t rank = -1, best_rank = -1;
  while (enumerator.next(&choice)) {
    ++rank;
    ++out.stats.candidate_plans;
    for (std::size_t j = 0; j < members.size(); ++j)
      scratch.choice[static_cast<std::size_t>(members[j])] = choice[j];
    FamilyScore s;
    if (!ctx.evaluate(scratch, scope, &s, &out.stats, &out.work)) continue;
    ++out.stats.valid_plans;
    if (best_rank < 0 || s.better_than(best)) {
      best = s;
      best_rank = rank;
    }
  }
  if (best_rank >= 0) {
    out.found = true;
    out.choice = std::move(choice);
    const std::vector<int>& counts = enumerator.counts();
    for (std::size_t j = 0; j < members.size(); ++j) {
      out.choice[j] = static_cast<int>(best_rank % counts[j]);
      best_rank /= counts[j];
    }
  }
  return out;
}

namespace {

/// better_than's tolerance.
constexpr double kTolerance = 1e-9;
/// A band edge A needs no candidate scoring in (A, A * kBandGap]: the
/// margin FrontierDpPolicy's band argument needs, with room for the
/// rounding of better_than's products.
constexpr double kBandGap = 1.0 + 4.0 * kTolerance;
/// Two summation orders of at most ~10^4 non-negative doubles agree
/// within this fraction of the terms' total. The DP adds a candidate's
/// terms step by step, comm_cost and the window in their own orders.
constexpr double kSumError = 1e-11;

/// Open-addressing index from 64-bit hashes to small integers. The
/// caller compares the keys behind a matching hash. clear() is O(1) (a
/// slot is empty unless it carries the current stamp), and the capacity
/// is kept across clears.
class IndexTable {
 public:
  void clear() {
    if (++stamp_ == 0) {  // wrapped: no slot may carry a live stamp
      slots_.assign(slots_.size(), Slot{});
      stamp_ = 1;
    }
    size_ = 0;
  }

  /// The index stored under `hash` for which `same(index)` holds, or -1.
  template <typename Same>
  std::int32_t find(std::uint64_t hash, Same&& same) const {
    if (slots_.empty()) return -1;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.stamp != stamp_) return -1;
      if (slot.hash == hash && same(slot.index)) return slot.index;
    }
  }

  void insert(std::uint64_t hash, std::int32_t index) {
    if (2 * (size_ + 1) > slots_.size()) {
      spare_.clear();
      for (const Slot& slot : slots_)
        if (slot.stamp == stamp_) spare_.push_back(slot);
      slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), Slot{});
      stamp_ = 1;
      for (const Slot& slot : spare_) place(slot.hash, slot.index);
    }
    place(hash, index);
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::int32_t index = 0;
    std::uint32_t stamp = 0;
  };
  void place(std::uint64_t hash, std::int32_t index) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i].stamp == stamp_) i = (i + 1) & mask;
    slots_[i] = {hash, index, stamp_};
  }
  std::vector<Slot> slots_, spare_;
  std::size_t size_ = 0;
  std::uint32_t stamp_ = 1;
};

/// What a step from a state with one choice leads to, and what it adds
/// to a candidate's comm_cost with the family's window: Σ exposed +
/// max(0, Σ overlappable − Σ window) over its members' steps, up to the
/// order of the additions.
struct Transition {
  static constexpr std::int32_t kUnrouted = -2;
  static constexpr std::int32_t kFailed = -1;
  std::int32_t next = kUnrouted;  ///< the next state's id, or the above
  sharding::ShardSpec layout;     ///< the routed member's output layout
  double exposed = 0.0;       ///< non-overlappable events' time
  double overlappable = 0.0;  ///< overlappable events' time
  double window = 0.0;        ///< the member's backward-window term
};

/// A family's interned frontier states and memoized transitions: one
/// lane for the probe and every exit layout's steady state.
struct Lane {
  const FamilyScope* scope = nullptr;
  const sharding::PatternTable* table = nullptr;
  const cost::ClusterSpec* cluster = nullptr;
  sharding::FrontierRouter router;
  std::vector<sharding::FrontierState> states;  ///< first `size` in use
  std::size_t size = 0;
  std::vector<std::size_t> position;  ///< per state
  std::vector<std::size_t> first;     ///< per state, into transitions
  std::vector<Transition> transitions;
  IndexTable index;

  void bind(const FamilySearchContext& ctx, const FamilyScope& family) {
    scope = &family;
    table = &ctx.table();
    cluster = &ctx.options().cluster;
    router.bind(ctx.graph(), family.routing(), ctx.table());
    size = 0;
    position.clear();
    first.clear();
    transitions.clear();
    index.clear();
  }

  /// The id of the state before position 0 at `boundary`.
  std::int32_t root(const sharding::ShardSpec& boundary) {
    if (states.size() == size) states.emplace_back();
    router.initial(boundary, &states[size]);
    return intern(0);
  }

  /// The id of states[size], a state before position `p`: an earlier
  /// equal state's, or its own when it is new.
  std::int32_t intern(std::size_t p) {
    const sharding::FrontierState& state = states[size];
    const std::uint64_t hash = util::hash_combine(state.hash(), p);
    const std::int32_t found = index.find(hash, [&](std::int32_t i) {
      const auto at = static_cast<std::size_t>(i);
      return position[at] == p && states[at] == state;
    });
    if (found >= 0) return found;
    const std::size_t id = size++;
    position.push_back(p);
    first.push_back(transitions.size());
    transitions.resize(
        transitions.size() +
        (p < scope->size() ? static_cast<std::size_t>(scope->choices(p))
                           : 0));
    index.insert(hash, static_cast<std::int32_t>(id));
    return static_cast<std::int32_t>(id);
  }

  /// Routes every choice from state `id`, on first use: one restore,
  /// then one step per choice, each scored from the events it emitted.
  void expand(std::int32_t id) {
    const auto at = static_cast<std::size_t>(id);
    if (transitions[first[at]].next != Transition::kUnrouted) return;
    const std::size_t p = position[at];
    const std::vector<sharding::ShardingPattern>& row =
        table->at(scope->routing().order[p]);
    router.restore(states[at], p);
    for (int c = 0; c < scope->choices(p); ++c) {
      // The next state is routed into the pool's first free entry, and
      // kept there when it is new.
      if (states.size() == size) states.emplace_back();
      Transition t;
      if (router.step(c, &states[size])) {
        for (const sharding::CommEvent& e : router.events()) {
          const double time = cost::comm_event_time(e, *cluster);
          (e.overlappable ? t.overlappable : t.exposed) += time;
        }
        t.window = scope->window_term(
            p, sharding::computes_split(row[static_cast<std::size_t>(c)],
                                        router.layout()));
        t.layout = router.layout();
        t.next = intern(p + 1);
      } else {
        t.next = Transition::kFailed;
      }
      transitions[first[at] + static_cast<std::size_t>(c)] = t;
    }
  }

  /// The step from state `id` with `choice` (after expand(id)).
  const Transition& step(std::int32_t id, int choice) const {
    return transitions[first[static_cast<std::size_t>(id)] +
                       static_cast<std::size_t>(choice)];
  }
};

/// A joint (probe, steady-state) state of one exit layout's DP.
struct Node {
  std::int32_t probe = 0, steady = 0;  ///< the lane's state ids
  std::int64_t count = 0;              ///< prefixes that reach it
  /// Least weight bytes over them.
  std::int64_t min_weight = std::numeric_limits<std::int64_t>::max();
  std::size_t edges_begin = 0, edges_end = 0;
  /// Its Pareto labels, while its layer is the DP's current one.
  std::size_t labels_begin = 0, labels_end = 0;
  /// Whether a valid completion exists, and over the completions: the
  /// least Σ exposed, the least and the most Σ (overlappable − window),
  /// and the least Σ (exposed + overlappable − window).
  bool reach = false;
  double tail_exposed = std::numeric_limits<double>::infinity();
  double tail_excess = std::numeric_limits<double>::infinity();
  double tail_excess_max = -std::numeric_limits<double>::infinity();
  double tail_total = std::numeric_limits<double>::infinity();
};

struct Edge {
  std::size_t to;
  int choice;
  double exposed, excess;  ///< excess = overlappable − window
  std::int64_t weight;
};

/// A Pareto label of a node: Σ exposed and Σ (overlappable − window)
/// over one of its prefixes. A node's labels are sorted by exposed
/// ascending, so their excesses descend.
struct Label {
  double exposed, excess;
};

/// A candidate scored exactly by the winner step.
struct Scored {
  std::int64_t rank;
  FamilyScore score;
};

/// FrontierDpPolicy's per-thread buffers, reused across families.
struct DpBuffers {
  Lane lane;
  std::vector<sharding::ShardSpec> exits;
  /// Every DP's nodes and edges. dag k's layer p is nodes
  /// [layers[k * (n + 2) + p], layers[k * (n + 2) + p + 1]).
  std::vector<Node> nodes;
  std::vector<Edge> edges;
  std::vector<std::size_t> layers;
  std::vector<std::int64_t> valid;  ///< per dag
  IndexTable node_index;
  std::vector<Label> labels, next_labels;
  /// Per node of the next layer: its in-edges, grouped by node.
  std::vector<std::size_t> in_begin, in_fill, in_edges, in_from;
  /// A label merge's cursor per in-edge: next label, end, the edge.
  struct Cursor {
    std::size_t at, end, edge;
  };
  std::vector<Cursor> cursors;
  // The winner step's buffers.
  std::vector<int> path;
  struct Frame {
    std::size_t node, edge;
    double exposed, excess;
  };
  std::vector<Frame> stack;
  std::vector<Scored> band;
  std::vector<double> comms;
  std::vector<FamilyScore> scores;
  std::vector<char> in_band;
  sharding::ShardingPlan plan;  ///< the winner step's candidate
};

DpBuffers& tls_dp_buffers() {
  thread_local DpBuffers buffers;
  return buffers;
}

/// What the DPs found over every exit layout.
struct DpSummary {
  std::int64_t valid = 0;
  double min_score = std::numeric_limits<double>::infinity();
  std::int64_t min_weight = std::numeric_limits<std::int64_t>::max();
  double error = 0.0;  ///< bound on |DP sum − comm_cost| of any candidate
};

/// Resolves label `l` at `node` against the node's tails, lowering
/// `*least` (the least score found): a label whose every completion
/// keeps Σ (overlappable − window) <= 0 scores at best its exposed plus
/// the least tail exposed; one whose every completion keeps it >= 0
/// scores at best its total plus the least tail total. Returns true when
/// the label must travel further: it is neither, and its bound is below
/// `*least`.
bool unresolved(const Label& l, const Node& node, double* least) {
  if (l.excess + node.tail_excess_max <= 0.0) {
    *least = std::min(*least, l.exposed + node.tail_exposed);
    return false;
  }
  if (l.excess + node.tail_excess >= 0.0) {
    *least = std::min(*least, l.exposed + l.excess + node.tail_total);
    return false;
  }
  return l.exposed + node.tail_exposed +
             std::max(0.0, l.excess + node.tail_excess) <
         *least;
}

/// The labels of the next layer's nodes [end, next_end): each node's Pareto
/// front of its in-edges' sources' labels, each shifted by its edge, less
/// the labels unresolved() settles. The sources' fronts are sorted, so
/// this is a merge of sorted lists.
void merge_labels(DpBuffers& b, std::size_t begin, std::size_t end,
                  std::size_t next_end, double* least) {
  const std::size_t next = next_end - end;
  const std::size_t first_edge = b.nodes[begin].edges_begin;
  const std::size_t last_edge = b.nodes[end - 1].edges_end;
  b.in_begin.assign(next + 1, 0);
  for (std::size_t e = first_edge; e < last_edge; ++e)
    ++b.in_begin[b.edges[e].to - end + 1];
  for (std::size_t v = 0; v < next; ++v) b.in_begin[v + 1] += b.in_begin[v];
  b.in_edges.resize(last_edge - first_edge);
  b.in_from.resize(b.in_edges.size());
  b.in_fill.assign(b.in_begin.begin(), b.in_begin.end() - 1);
  for (std::size_t u = begin; u < end; ++u) {
    const Node& node = b.nodes[u];
    if (node.labels_begin == node.labels_end) continue;
    for (std::size_t e = node.edges_begin; e < node.edges_end; ++e) {
      const std::size_t slot = b.in_fill[b.edges[e].to - end]++;
      b.in_edges[slot] = e;
      b.in_from[slot] = u;
    }
  }
  b.next_labels.clear();
  for (std::size_t v = 0; v < next; ++v) {
    Node& node = b.nodes[end + v];
    node.labels_begin = node.labels_end = b.next_labels.size();
    if (!node.reach) continue;
    b.cursors.clear();
    for (std::size_t i = b.in_begin[v]; i < b.in_fill[v]; ++i) {
      const Node& u = b.nodes[b.in_from[i]];
      b.cursors.push_back({u.labels_begin, u.labels_end, b.in_edges[i]});
    }
    double best_excess = std::numeric_limits<double>::infinity();
    for (;;) {
      DpBuffers::Cursor* pick = nullptr;
      Label l{};
      for (DpBuffers::Cursor& c : b.cursors) {
        if (c.at == c.end) continue;
        const Edge& edge = b.edges[c.edge];
        const Label shifted{b.labels[c.at].exposed + edge.exposed,
                            b.labels[c.at].excess + edge.excess};
        if (pick == nullptr || shifted.exposed < l.exposed ||
            (shifted.exposed == l.exposed && shifted.excess < l.excess)) {
          pick = &c;
          l = shifted;
        }
      }
      if (pick == nullptr) break;
      ++pick->at;
      if (l.excess >= best_excess) continue;  // dominated
      best_excess = l.excess;
      if (unresolved(l, node, least)) b.next_labels.push_back(l);
    }
    node.labels_end = b.next_labels.size();
  }
  b.labels.swap(b.next_labels);
}

/// Runs the DP of dag `k` for exit layout `exit`, from the probe root
/// (state 0) and the root at `exit`. With `exits`, collects every layout
/// a valid probe prefix gives the exit member. Adds into `summary`.
void run_dp(DpBuffers& b, std::size_t k, const sharding::ShardSpec& exit,
            std::vector<sharding::ShardSpec>* exits, DpSummary* summary) {
  Lane& lane = b.lane;
  const FamilyScope& scope = *lane.scope;
  const std::size_t n = scope.size();
  b.layers.resize((k + 1) * (n + 2));
  b.valid.resize(k + 1);
  std::size_t* layer = &b.layers[k * (n + 2)];
  layer[0] = b.nodes.size();
  Node root;
  root.steady = lane.root(exit);
  root.count = 1;
  root.min_weight = 0;
  b.nodes.push_back(root);
  double magnitude = 0.0;  // bounds Σ exposed + overlappable + window
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t begin = layer[p], end = b.nodes.size();
    layer[p + 1] = end;
    b.node_index.clear();
    double step_magnitude = 0.0;
    for (std::size_t u = begin; u < end; ++u) {
      b.nodes[u].edges_begin = b.edges.size();
      lane.expand(b.nodes[u].probe);
      lane.expand(b.nodes[u].steady);
      for (int c = 0; c < scope.choices(p); ++c) {
        const Transition& probe = lane.step(b.nodes[u].probe, c);
        if (probe.next < 0) continue;
        if (p == scope.exit()) {
          if (exits != nullptr &&
              std::find(exits->begin(), exits->end(), probe.layout) ==
                  exits->end())
            exits->push_back(probe.layout);
          if (probe.layout != exit) continue;
        }
        const Transition& steady = lane.step(b.nodes[u].steady, c);
        if (steady.next < 0) continue;
        const std::uint64_t hash = util::splitmix64(
            (static_cast<std::uint64_t>(probe.next) << 32) ^
            static_cast<std::uint32_t>(steady.next));
        std::int32_t v = b.node_index.find(hash, [&](std::int32_t i) {
          const Node& node = b.nodes[static_cast<std::size_t>(i)];
          return node.probe == probe.next && node.steady == steady.next;
        });
        if (v < 0) {
          v = static_cast<std::int32_t>(b.nodes.size());
          Node node;
          node.probe = probe.next;
          node.steady = steady.next;
          b.nodes.push_back(node);
          b.node_index.insert(hash, v);
        }
        const std::int64_t weight = scope.weight_bytes(p, c);
        b.edges.push_back({static_cast<std::size_t>(v), c, steady.exposed,
                           steady.overlappable - steady.window, weight});
        Node& to = b.nodes[static_cast<std::size_t>(v)];
        to.count += b.nodes[u].count;
        to.min_weight = std::min(to.min_weight, b.nodes[u].min_weight + weight);
        step_magnitude =
            std::max(step_magnitude,
                     steady.exposed + steady.overlappable + steady.window);
      }
      b.nodes[u].edges_end = b.edges.size();
    }
    magnitude += step_magnitude;
  }
  layer[n + 1] = b.nodes.size();

  // Completions, backward from the last layer.
  std::int64_t valid = 0;
  for (std::size_t v = layer[n]; v < layer[n + 1]; ++v) {
    Node& node = b.nodes[v];
    node.reach = true;
    node.tail_exposed = node.tail_excess = node.tail_excess_max = 0.0;
    node.tail_total = 0.0;
    valid += node.count;
    summary->min_weight = std::min(summary->min_weight, node.min_weight);
  }
  for (std::size_t p = n; p-- > 0;) {
    for (std::size_t u = layer[p]; u < layer[p + 1]; ++u) {
      Node& node = b.nodes[u];
      for (std::size_t e = node.edges_begin; e < node.edges_end; ++e) {
        const Edge& edge = b.edges[e];
        const Node& to = b.nodes[edge.to];
        if (!to.reach) continue;
        node.reach = true;
        node.tail_exposed =
            std::min(node.tail_exposed, edge.exposed + to.tail_exposed);
        node.tail_excess =
            std::min(node.tail_excess, edge.excess + to.tail_excess);
        node.tail_excess_max =
            std::max(node.tail_excess_max, edge.excess + to.tail_excess_max);
        node.tail_total = std::min(
            node.tail_total, edge.exposed + edge.excess + to.tail_total);
      }
    }
  }
  b.valid[k] = valid;
  summary->valid += valid;

  // The least score: Pareto labels over (Σ exposed, Σ excess) travel
  // forward until their tails settle them.
  if (valid > 0) {
    b.labels.clear();
    Node& first = b.nodes[layer[0]];
    first.labels_begin = 0;
    first.labels_end =
        unresolved(Label{0.0, 0.0}, first, &summary->min_score) ? 1 : 0;
    if (first.labels_end == 1) b.labels.push_back(Label{0.0, 0.0});
    for (std::size_t p = 0; p < n && !b.labels.empty(); ++p)
      merge_labels(b, layer[p], layer[p + 1], layer[p + 2],
                   &summary->min_score);
  }
  summary->error = std::max(summary->error, kSumError * magnitude);
}

/// True when dag `k` has the all-zeros path, rank 0, whose DP sums and
/// weight bytes it then adds into the outputs.
bool zero_path(const DpBuffers& b, std::size_t k, double* exposed,
               double* excess, std::int64_t* weight) {
  const std::size_t n = b.lane.scope->size();
  std::size_t u = b.layers[k * (n + 2)];
  for (std::size_t p = 0; p < n; ++p) {
    const Node& node = b.nodes[u];
    if (node.edges_begin == node.edges_end) return false;
    const Edge& edge = b.edges[node.edges_begin];
    if (edge.choice != 0 || !b.nodes[edge.to].reach) return false;
    *exposed += edge.exposed;
    *excess += edge.excess;
    *weight += edge.weight;
    u = edge.to;
  }
  return true;
}

/// The Algorithm 2 rank of a choice per position.
std::int64_t path_rank(const std::vector<int>& path, const FamilyScope& scope) {
  std::int64_t rank = 0, stride = 1;
  for (std::size_t j = 0; j < scope.size(); ++j) {
    const std::size_t p = scope.position(j);
    rank += path[p] * stride;
    stride *= scope.choices(p);
  }
  return rank;
}

/// Calls `leaf()` with b.path set to each complete path of dag `k`, in
/// route order, whose cost-to-go bound stays within `threshold`.
template <typename Leaf>
void walk_band(DpBuffers& b, std::size_t k, double threshold, Leaf&& leaf) {
  const std::size_t n = b.lane.scope->size();
  const std::size_t root = b.layers[k * (n + 2)];
  b.path.assign(n, 0);
  b.stack.clear();
  b.stack.push_back({root, b.nodes[root].edges_begin, 0.0, 0.0});
  while (!b.stack.empty()) {
    const std::size_t p = b.stack.size() - 1;
    DpBuffers::Frame& f = b.stack.back();
    if (f.edge == b.nodes[f.node].edges_end) {
      b.stack.pop_back();
      continue;
    }
    const Edge& edge = b.edges[f.edge++];
    const Node& to = b.nodes[edge.to];
    if (!to.reach) continue;
    const double exposed = f.exposed + edge.exposed;
    const double excess = f.excess + edge.excess;
    if (exposed + to.tail_exposed + std::max(0.0, excess + to.tail_excess) >
        threshold)
      continue;
    b.path[p] = edge.choice;
    if (p + 1 == n) {
      leaf();
    } else {
      b.stack.push_back({edge.to, to.edges_begin, exposed, excess});
    }
  }
}

}  // namespace

double band_edge(std::span<const double> comms, double cover) {
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const double gap = comms[i] * kBandGap;
    if (gap > cover) break;
    if (i + 1 == comms.size() || comms[i + 1] > gap) return comms[i];
  }
  return -1.0;
}

FamilySearchOutcome FrontierDpPolicy::search(const FamilySearchContext& ctx,
                                             const SubgraphFamily& family,
                                             const ShardingPlan& base) const {
  FamilySearchOutcome out;
  const FamilyScope scope(ctx, family);
  const std::vector<ir::GraphNodeId>& members = family.member_nodes;
  DpBuffers& b = tls_dp_buffers();
  TAP_CHECK(!members.empty()) << "a family search needs members";

  // Counters: every candidate is visited, member by member.
  std::int64_t total = 1;
  for (std::size_t p = 0; p < scope.size(); ++p) {
    const int c = scope.choices(p);
    TAP_CHECK_GE(c, 1);
    TAP_CHECK_LE(total, std::numeric_limits<std::int64_t>::max() / c)
        << "the candidate space overflows a 64-bit rank";
    total *= c;
  }
  out.stats.candidate_plans = total;
  out.stats.nodes_visited = total * static_cast<std::int64_t>(members.size());

  // One DP per exit layout, all over one lane: the replicated one first,
  // which also finds the others.
  b.nodes.clear();
  b.edges.clear();
  b.exits.clear();
  b.lane.bind(ctx, scope);
  b.lane.root(sharding::ShardSpec::replicate());  // the probe's: 0
  DpSummary summary;
  run_dp(b, 0, sharding::ShardSpec::replicate(), &b.exits, &summary);
  std::size_t dags = 1;
  for (const sharding::ShardSpec& exit : b.exits)
    if (exit != sharding::ShardSpec::replicate())
      run_dp(b, dags++, exit, nullptr, &summary);
  out.work.dp_steps = out.work.nodes_routed =
      static_cast<std::int64_t>(b.lane.router.steps());
  out.stats.valid_plans = out.stats.cost_queries = summary.valid;
  if (summary.valid == 0) return out;

  // The winner step scores candidates exactly, as ExhaustivePolicy does,
  // through a plan of which only the members' choices are read.
  ShardingPlan& scratch = b.plan;
  scratch.num_shards = base.num_shards;
  scratch.dp_replicas = base.dp_replicas;
  if (scratch.choice.size() != base.choice.size())
    scratch.choice.assign(base.choice.size(), 0);
  SearchStats scored;  // the counters above are exact already
  auto score_path = [&](const std::vector<int>& path) {
    for (std::size_t j = 0; j < members.size(); ++j)
      scratch.choice[static_cast<std::size_t>(members[j])] =
          path[scope.position(j)];
    Scored s{path_rank(path, scope), {}};
    TAP_CHECK(ctx.evaluate(scratch, scope, &s.score, &scored, &out.work))
        << "a DP path does not route";
    ++out.work.band_candidates;
    return s;
  };

  // The plateau rule: when rank 0, the all-zeros candidate, is valid, it
  // wins if no candidate is better_than it. Its DP score and weight bytes
  // say whether that can hold before it is scored exactly.
  std::int64_t winner = -1;
  for (std::size_t k = 0; k < dags; ++k) {
    double exposed = 0.0, excess = 0.0;
    std::int64_t weight = 0;
    if (b.valid[k] == 0 || !zero_path(b, k, &exposed, &excess, &weight))
      continue;
    const double lowest = std::max(0.0, summary.min_score - summary.error);
    const double zero_lowest =
        std::max(0.0, exposed + std::max(0.0, excess) - summary.error);
    if (weight == summary.min_weight &&
        lowest >= zero_lowest * (1.0 - kTolerance)) {
      b.path.assign(scope.size(), 0);
      const Scored zero = score_path(b.path);
      if (lowest >= zero.score.comm * (1.0 - kTolerance) &&
          summary.min_weight >= zero.score.weight_bytes)
        winner = 0;
    }
    break;  // the all-zeros candidate has one exit layout
  }
  if (winner < 0) {
    // The band: every candidate up to `cover` is scored, and the band
    // edge is the first score with no other within kBandGap above it.
    const double top = summary.min_score + summary.error;
    double cover = top * (1.0 + 16.0 * kTolerance);
    double edge = -1.0;
    while (edge < 0.0) {
      b.band.clear();
      for (std::size_t k = 0; k < dags; ++k) {
        if (b.valid[k] == 0) continue;
        walk_band(b, k, cover + 2.0 * summary.error,
                  [&] { b.band.push_back(score_path(b.path)); });
      }
      if (static_cast<std::int64_t>(b.band.size()) == summary.valid) {
        edge = std::numeric_limits<double>::infinity();
        break;
      }
      b.comms.clear();
      for (const Scored& s : b.band) b.comms.push_back(s.score.comm);
      std::sort(b.comms.begin(), b.comms.end());
      edge = band_edge(b.comms, cover);
      cover = cover * 8.0 + summary.error;
    }
    std::sort(b.band.begin(), b.band.end(),
              [](const Scored& a, const Scored& c) { return a.rank < c.rank; });
    b.scores.clear();
    b.in_band.clear();
    for (const Scored& s : b.band) {
      b.scores.push_back(s.score);
      b.in_band.push_back(s.score.comm <= edge ? 1 : 0);
    }
    const std::int64_t best = first_best_rank(b.scores, b.in_band);
    TAP_CHECK_GE(best, 0);
    winner = b.band[static_cast<std::size_t>(best)].rank;
  }
  out.found = true;
  out.choice.resize(members.size());
  for (std::size_t j = 0; j < members.size(); ++j) {
    const int count = scope.choices(scope.position(j));
    out.choice[j] = static_cast<int>(winner % count);
    winner /= count;
  }
  return out;
}

}  // namespace tap::core
