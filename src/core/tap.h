// tap::auto_parallel — the end-to-end TAP planner (Fig. 5):
//   ① lower the framework graph to the TAP IR (caller does this once),
//   ② prune the search space with shared subgraphs (Algorithm 1),
//   ③ enumerate candidate plans per unique subgraph (Algorithm 2),
//   ④ validate each candidate by pattern routing over the subgraph only
//      (Algorithm 3) and score it with the communication cost model,
//   ⑤ assemble the per-family winners into the full plan, route it over
//      the whole graph, and hand it to graph rewriting.
//
// Steps ②–⑤ are implemented as an explicit PlannerPipeline of passes
// (core/planner_pipeline.h) over a shared PlanContext: BuildPatternTable →
// Prune → FamilySearch → GlobalRefine → FinalizeCost. auto_parallel runs
// the standard pipeline; callers needing a different search strategy or a
// pipeline prefix assemble their own (the baselines do exactly that).
//
// The search statistics (candidates examined, nodes visited, cost queries,
// wall time) back the complexity claims of Table 2 and the search-time
// experiments of Figs. 9/10; the per-pass timings back Fig. 6-style
// breakdowns of where search time goes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/family_search.h"
#include "core/plan_context.h"
#include "ir/lowering.h"
#include "util/cancellation.h"

namespace tap::core {

/// How a plan came to be — the serving-side trust label (ISSUE 5).
enum class PlanSource : std::uint8_t {
  kComplete = 0,  ///< full search ran to completion
  kAnytime = 1,   ///< search was cancelled; best-so-far plan
  kFallback = 2,  ///< search produced nothing; expert-baseline plan
};

/// Stable lowercase name ("complete" / "anytime" / "fallback") for
/// reports, metrics and the CLI.
const char* plan_source_name(PlanSource source);

/// The source plan_source_name(source) == `name` names; throws CheckError
/// for any other name.
PlanSource plan_source_from_name(const std::string& name);

/// Degradation record attached to every TapResult and surfaced through
/// PlanReport JSON and tap_cli. Complete results have searched == total
/// and no fallback_reason; only complete results are admitted to the
/// PlanCache.
struct PlanProvenance {
  PlanSource source = PlanSource::kComplete;
  std::int64_t families_searched = 0;
  std::int64_t families_total = 0;
  std::int64_t meshes_searched = 0;  ///< 1/1 for fixed-mesh auto_parallel
  std::int64_t meshes_total = 0;
  /// True when a wall-clock deadline (not a checkpoint limit) tripped.
  bool deadline_hit = false;
  /// Human-readable cause for kFallback results ("deadline", ...).
  std::string fallback_reason;

  bool complete() const { return source == PlanSource::kComplete; }
};

struct TapResult {
  sharding::ShardingPlan best_plan;
  sharding::RoutedPlan routed;  ///< full-graph routing of the best plan
  cost::PlanCost cost;          ///< full-graph communication cost
  pruning::PruneResult pruning;
  PlanProvenance provenance;

  // Search statistics (Table 2, Figs. 9/10).
  std::int64_t candidate_plans = 0;
  std::int64_t valid_plans = 0;
  std::int64_t nodes_visited = 0;
  std::int64_t cost_queries = 0;
  double search_seconds = 0.0;
  /// Per-pass wall times of the pipeline run that produced this result
  /// (the winning factorization's, for auto_parallel_best_mesh).
  std::vector<PassTiming> pass_timings;
};

/// Builds the cancellation token `opts` implies: a deadline token when
/// deadline_ms > 0, a deterministic checkpoint limit when
/// max_checkpoints >= 0, both when both are set, and an inert token
/// otherwise. The planner entry points call this when handed an inert
/// token; the PlannerService calls it at submit() time so queue wait
/// counts against the deadline.
util::CancellationToken cancellation_for(const TapOptions& opts);

/// Derives the best tensor/data parallel plan for `tg` (Algorithm 2).
/// `policy` selects the family-search strategy for the standard pipeline;
/// nullptr = the default FrontierDpPolicy. The PlannerService passes its
/// family-memoizing policy here (src/service/planner_service.h).
/// `cancel` makes the search *anytime*: families whose checkpoint trips
/// keep their data-parallel default and the result is marked kAnytime.
/// An inert token (the default) is replaced by cancellation_for(opts).
TapResult auto_parallel(const ir::TapGraph& tg, const TapOptions& opts,
                        std::shared_ptr<const FamilySearchPolicy> policy =
                            nullptr,
                        util::CancellationToken cancel = {});

/// Runs auto_parallel over every (dp, tp) factorization of
/// `opts.cluster.world()` and returns the cheapest — the mesh sweep behind
/// the paper's `tap.split(mesh)` front-end. `opts.num_shards`/`dp_replicas`
/// are ignored; the winning mesh is reported in the result's plan fields.
/// Pruning runs once (it is mesh-independent) and the factorizations are
/// searched concurrently on `opts.threads` workers; ties between equal-cost
/// meshes resolve to the smaller tp, never to completion order. `policy`
/// as in auto_parallel (it must be thread-safe: the sweep shares it).
/// `cancel` as in auto_parallel. Checkpoint ordinals are striped per
/// factorization (mesh i owns ordinals [i*(W+1), (i+1)*(W+1)) where W is
/// the weighted-family count), so a deterministic checkpoint limit skips
/// the same meshes/families at any thread count. If every factorization
/// was skipped, throws util::CancelledError instead of CheckError so the
/// service can distinguish "cancelled before any work" from a planner bug.
TapResult auto_parallel_best_mesh(const ir::TapGraph& tg,
                                  const TapOptions& opts,
                                  std::shared_ptr<const FamilySearchPolicy>
                                      policy = nullptr,
                                  util::CancellationToken cancel = {});

/// The tp of every factorization auto_parallel_best_mesh sweeps: the
/// divisors of `world`, ascending.
std::vector<int> sweep_tps(int world);

}  // namespace tap::core
