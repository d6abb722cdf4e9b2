// PlanContext — the shared state the PlannerPipeline passes read and
// write (core/planner_pipeline.h). The monolithic auto_parallel loop is
// restructured as BuildPatternTable → Prune → FamilySearch → GlobalRefine
// → FinalizeCost; each pass consumes the fields its predecessors produced
// and records its wall time, so benches and tests can run pipeline
// prefixes and report Fig. 6-style per-stage search breakdowns.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "pruning/prune.h"
#include "sharding/pattern.h"
#include "sharding/plan.h"
#include "sharding/routing.h"
#include "util/cancellation.h"
#include "util/check.h"

namespace tap::core {

/// Sentinel for "no valid plan yet" in cost minimization. Every real
/// communication cost is finite, so infinity orders after every candidate.
inline constexpr double kInvalidPlanCost =
    std::numeric_limits<double>::infinity();

struct TapOptions {
  /// Tensor-parallel group size (mesh inner dimension).
  int num_shards = 8;
  /// Data-parallel replicas around each tp group (mesh outer dimension,
  /// the paper's `mesh = [2, 8]` Example 1). dp x tp must equal the device
  /// world you intend to use.
  int dp_replicas = 1;
  cost::ClusterSpec cluster = cost::ClusterSpec::v100_node();
  pruning::PruneOptions prune;
  /// Worker threads for the independent family searches and the (dp, tp)
  /// factorizations of the mesh sweep. <= 0 selects
  /// hardware_concurrency(); 1 forces the sequential order. Results are
  /// bit-identical at every setting: per-task statistics merge in family /
  /// mesh index order, never completion order.
  int threads = 0;
  /// Anytime-search budget in wall-clock milliseconds; <= 0 = unlimited.
  /// When the deadline passes mid-search, remaining families keep their
  /// data-parallel default and the result is marked PlanSource::kAnytime.
  /// Which families got searched depends on timing — use max_checkpoints
  /// for a reproducible cutoff. Excluded from the plan-cache fingerprint
  /// (like `threads`): anytime results are never cached.
  std::int64_t deadline_ms = 0;
  /// Deterministic anytime cutoff: checkpoints with ordinal >=
  /// max_checkpoints are skipped (< 0 = unlimited). Ordinals are stable
  /// work indices (family index; mesh index in the sweep), so the same
  /// limit produces byte-identical plans at any thread count. Excluded
  /// from the plan-cache fingerprint like deadline_ms.
  std::int64_t max_checkpoints = -1;
};

/// Serving-side deadline class of a latency budget: a closed,
/// low-cardinality bucketing for metrics labels, request records, and
/// admission policy (ISSUE 9). Always returns a static-storage string,
/// so it is safe to keep by pointer in POD records:
///   <= 0  "none"      no deadline — complete search, whatever it costs
///   < 100 "tight"     interactive; fallback pressure is expected
///   < 1000 "standard" one search round trip fits comfortably
///   else  "relaxed"   batch-ish; deadline exists but rarely binds
inline const char* deadline_class_name(std::int64_t deadline_ms) {
  if (deadline_ms <= 0) return "none";
  if (deadline_ms < 100) return "tight";
  if (deadline_ms < 1000) return "standard";
  return "relaxed";
}

/// Search work counters (Table 2, Figs. 9/10). Every parallel task owns a
/// local copy; the join merges them in task-index order so the totals are
/// deterministic.
struct SearchStats {
  std::int64_t candidate_plans = 0;
  std::int64_t valid_plans = 0;
  /// Nodes the search would route from scratch. Pinned by the plan bytes
  /// (the wire and the plan record carry it), so it still counts every
  /// member of every family candidate, scored or counted by the DP, and V
  /// per GlobalRefine revert probe, skipped or not. The nodes actually
  /// routed are counted apart: planner.family.nodes_routed (far fewer)
  /// and planner.refine.nodes_routed (V per route the pass ran).
  std::int64_t nodes_visited = 0;
  std::int64_t cost_queries = 0;

  void merge(const SearchStats& o) {
    candidate_plans += o.candidate_plans;
    valid_plans += o.valid_plans;
    nodes_visited += o.nodes_visited;
    cost_queries += o.cost_queries;
  }
};

/// Wall time of one pipeline pass.
struct PassTiming {
  std::string pass;
  double seconds = 0.0;
};

struct PlanContext {
  // ---- inputs -----------------------------------------------------------
  const ir::TapGraph* tg = nullptr;
  TapOptions opts;
  /// Optional precomputed pruning. Algorithm 1 only inspects names and
  /// structure — never the mesh — so the mesh sweep prunes once and shares
  /// the result across every (dp, tp) factorization; PrunePass copies this
  /// instead of re-running when set.
  const pruning::PruneResult* shared_pruning = nullptr;
  /// Cooperative cancellation for the anytime search. Inert by default;
  /// FamilySearch polls it once per weighted family (ordinal =
  /// checkpoint_base + family index) and GlobalRefine once per revert
  /// probe. A tripped checkpoint skips the unit, it never aborts the run.
  util::CancellationToken cancel;
  /// Offset added to family ordinals so the mesh sweep can give every
  /// (dp, tp) factorization a disjoint, stable ordinal range.
  std::uint64_t checkpoint_base = 0;

  // ---- pass outputs -----------------------------------------------------
  std::optional<sharding::PatternTable> table;  ///< BuildPatternTable
  pruning::PruneResult pruning;                 ///< Prune
  sharding::ShardingPlan plan;                  ///< FamilySearch
  sharding::RoutedPlan routed;                  ///< GlobalRefine
  /// GlobalRefine: the full-graph cost of `routed`, which FinalizeCost
  /// takes instead of costing the route again. Unset when `routed` was
  /// set some other way; FinalizeCost then costs it.
  std::optional<cost::PlanCost> routed_cost;
  cost::PlanCost cost;                          ///< FinalizeCost
  SearchStats stats;
  std::vector<PassTiming> timings;

  // ---- anytime bookkeeping (feeds TapResult::provenance) ---------------
  std::int64_t families_searched = 0;  ///< weighted families searched
  std::int64_t families_total = 0;     ///< weighted families in the graph
  bool cancelled = false;  ///< any checkpoint tripped during this run

  const ir::TapGraph& graph() const {
    TAP_CHECK(tg != nullptr) << "PlanContext has no graph";
    return *tg;
  }
};

}  // namespace tap::core
