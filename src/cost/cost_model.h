// The TAP cost model (§4.6): the cost of a candidate plan is its
// communication along the critical path, because once tensor-parallel
// groups span Ethernet links, communication — not FLOPs — decides which
// plan wins.
//
// The model handles the three practical challenges the paper lists:
//   * counting communicated parameters — only *trainable* weight gradients
//     are exchanged in the backward phase (routing already filters);
//   * gradient overlap/aggregation — weight-gradient AllReduces overlap
//     with backward compute and are packed (§4.7.1), so only a configurable
//     exposed fraction counts toward the plan cost;
//   * collective efficiency — AllGather/AllToAll pay their NCCL efficiency
//     penalty relative to AllReduce (cost/collectives).
#pragma once

#include "cost/cluster.h"
#include "cost/collectives.h"
#include "sharding/routing.h"

namespace tap::cost {

struct CostOptions {
  /// Fraction of overlappable (weight-gradient) communication time that
  /// remains exposed after overlap with backward compute and gradient
  /// packing. 0 = perfectly hidden, 1 = fully serial. Used only when
  /// `overlap_window_s` is negative.
  double exposed_overlap_fraction = 0.25;
  /// Backward-compute time available to hide gradient collectives behind.
  /// When >= 0, exposed overlappable comm = max(0, total − window): on a
  /// fast intra-node fabric gradients hide almost entirely, while on
  /// Ethernet most of the traffic is exposed — the mechanism behind
  /// Fig. 6's DP bars growing from 8w to 16w.
  double overlap_window_s = -1.0;
};

struct PlanCost {
  double forward_comm_s = 0.0;   ///< exposed forward-path communication
  double backward_comm_s = 0.0;  ///< exposed backward-path communication
  /// Full (pre-discount) time of the overlappable gradient collectives.
  double overlappable_comm_s = 0.0;
  std::int64_t comm_bytes = 0;  ///< logical bytes over all collectives

  double total() const { return forward_comm_s + backward_comm_s; }
};

// ---------------------------------------------------------------------------
// Per-collective cost attribution (the --explain ledger)
// ---------------------------------------------------------------------------

/// One routed collective, costed. `seconds` is the full busy time of the
/// collective (count included); `exposed_seconds` is its contribution to
/// PlanCost::total() after the overlap discount — the ledger's
/// exposed_seconds sum reproduces the scalar plan cost exactly.
struct CommLedgerEntry {
  ir::GraphNodeId node = ir::kInvalidGraphNode;  ///< owning GraphNode
  sharding::Collective kind = sharding::Collective::kNone;
  sharding::CommEvent::Phase phase = sharding::CommEvent::Phase::kForward;
  bool overlappable = false;
  bool cross_node = false;
  int count = 1;
  int group = 0;           ///< resolved collective group size
  std::int64_t bytes = 0;  ///< logical bytes over all `count` launches
  double seconds = 0.0;
  double exposed_seconds = 0.0;
};

/// The per-collective breakdown comm_cost() optionally fills: one entry
/// per routed CommEvent, in routed.comms order (entry i's routing reason
/// is sharding::comm_reason(tg, routed, routed.comms[i])), plus the
/// overlap discount actually applied. This
/// is the single source of truth for cost attribution — PlanReport,
/// core::visualize_plan and bench_fig14 all read it instead of recosting
/// events ad hoc.
struct CommLedger {
  std::vector<CommLedgerEntry> entries;
  /// Fraction of overlappable comm time left exposed under the
  /// CostOptions used (window mode or the configured fraction).
  double exposed_fraction = 0.0;

  /// Σ exposed_seconds == PlanCost::total() (modulo addition order).
  double exposed_seconds() const;
  /// Σ seconds: total collective busy time before any overlap discount.
  double busy_seconds() const;
  std::int64_t total_bytes() const;
  /// Scatters the entries onto per-GraphNode accumulators (vectors are
  /// assigned to `num_nodes` zeros; either output may be nullptr).
  void per_node(std::size_t num_nodes, std::vector<double>* exposed_s,
                std::vector<std::int64_t>* bytes) const;
};

/// Communication cost of a routed plan on `cluster`. Each collective runs
/// over its own event's group (the routed tp group, dp group or world).
/// When `ledger` is non-null it receives the per-collective attribution;
/// the scalar result is unchanged (the hot search path passes nullptr and
/// allocates nothing).
PlanCost comm_cost(const sharding::RoutedPlan& routed,
                   const ClusterSpec& cluster, const CostOptions& opts = {},
                   CommLedger* ledger = nullptr);

/// Busy time of one routed collective over its group, count included: the
/// per-event term comm_cost sums.
double comm_event_time(const sharding::CommEvent& e,
                       const ClusterSpec& cluster);

/// Backward-pass compute time of the clusters in `members` (nullptr = the
/// whole graph) under the routed plan's sharding, at its own mesh — the
/// overlap window fed into CostOptions::overlap_window_s.
double backward_compute_window(const ir::TapGraph& tg,
                               const sharding::RoutedPlan& routed,
                               const std::vector<ir::GraphNodeId>* members,
                               const ClusterSpec& cluster);

/// backward_compute_window as table reads. A cluster's backward time
/// depends on the candidate only through one bit — whether it runs
/// split (shrink dp·tp) or replicated (shrink dp) — so each op's
/// op_time × backward_factor is looked up, when the terms are built,
/// from a per-shrink value computed once per work class of the TapGraph
/// (ops with equal op_work, classed at finalize(); the FLOP and byte
/// counts are not recounted per mesh). window() adds the chosen terms in
/// backward_compute_window's order: the result is bit-identical at O(ops)
/// additions per call. The FamilySearch pass builds one per family
/// search; GlobalRefine builds one full-graph set.
class BackwardWindowTerms {
 public:
  /// Terms for the clusters in `members`, in that order (nullptr = every
  /// cluster in node order), at a `num_shards` x `dp_replicas` mesh.
  BackwardWindowTerms(const ir::TapGraph& tg,
                      const std::vector<ir::GraphNodeId>* members,
                      int num_shards, int dp_replicas,
                      const ClusterSpec& cluster);

  /// == backward_compute_window(tg, routed, members, cluster) for a
  /// `routed` at the construction mesh, `table` being that mesh's. Reads
  /// `routed` only at the members, so a reused subgraph route
  /// (route_subgraph_into) is fine.
  double window(const sharding::RoutedPlan& routed,
                const sharding::PatternTable& table) const;

  /// The clusters, in construction order.
  std::size_t size() const { return clusters_.size(); }
  /// Cluster `i`'s share of window(): the sum of its ops' terms, split or
  /// replicated.
  double term(std::size_t i, bool split) const;

 private:
  struct Cluster {
    ir::GraphNodeId id;
    std::size_t begin, end;  ///< its ops' terms: [begin, end)
  };
  int dp_replicas_ = 1;
  std::vector<Cluster> clusters_;
  std::vector<double> replicated_;  ///< per op, shrink dp
  std::vector<double> split_;       ///< per op, shrink dp·tp
};

// ---------------------------------------------------------------------------
// Training-technique options (§4.8: AMP / recomputation / ZeRO are
// orthogonal passes TAP composes with)
// ---------------------------------------------------------------------------

struct TrainingOptions {
  /// Automatic mixed precision: fp16 activations/gradients/compute with
  /// fp32 master weights (NVIDIA AMP, §4.8 [1]).
  bool amp = false;
  /// Tensor-core speedup applied to compute when amp is on (V100-era
  /// conservative figure; peak is ~8x, sustained far less).
  double amp_compute_speedup = 3.0;
  /// Gradient checkpointing (§4.8 [6]): keep only a fraction of forward
  /// activations and recompute the rest during backward.
  bool recompute = false;
  double recompute_keep_fraction = 0.25;
  double recompute_extra_backward = 0.33;  ///< one extra forward, amortized
  /// ZeRO stage 1 (§4.8 [23,24]): shard optimizer states across the dp
  /// replicas; each step re-gathers the updated weight shards.
  bool zero1 = false;
};

// ---------------------------------------------------------------------------
// Per-device memory estimate (Fig. 13's memory axis)
// ---------------------------------------------------------------------------

struct MemoryEstimate {
  std::int64_t weight_bytes = 0;      ///< local shards of all weights
  std::int64_t gradient_bytes = 0;    ///< same layout as weights
  std::int64_t optimizer_bytes = 0;   ///< Adam: 2 fp32 moments per weight
  std::int64_t activation_bytes = 0;  ///< stored forward activations (local)
  std::int64_t total() const {
    return weight_bytes + gradient_bytes + optimizer_bytes + activation_bytes;
  }
};

/// Estimates per-device training memory for a routed plan at its own
/// mesh under the given training techniques.
MemoryEstimate estimate_memory(const ir::TapGraph& tg,
                               const sharding::RoutedPlan& routed,
                               const TrainingOptions& training = {});

}  // namespace tap::cost
