// Plan explainability (the --explain subsystem): a structured PlanReport
// answering "why this plan?" from data the planner already computes:
//
//   * cost attribution — the cost::CommLedger comm_cost() fills, rolled
//     up into top-K communication contributors per subgraph family;
//   * simulated critical path — the discrete-event schedule's dependency
//     chain plus an exact classification of [0, iteration_s] into
//     compute / exposed-comm / bubble intervals;
//   * pruning attribution — what Algorithm 1's shared-subgraph folding
//     saved (families, duplicate instances, search-space reduction);
//   * plan diff — node-by-node comparison against an expert baseline
//     with per-scope cost deltas.
//
// Reports serialize to JSON (to_json/from_json round-trip byte-exactly)
// and render as text via util::table. The JSON carries ONLY deterministic
// fields — costs, attribution, simulated time, counts — never wall-clock
// measurements, so a report is byte-identical at any --threads setting
// and cacheable alongside the plan (PlannerService::explain). Wall-clock
// context (search seconds, obs latency quantiles) appears in the text
// rendering only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/tap.h"
#include "sim/simulator.h"

namespace tap::report {

// ---------------------------------------------------------------------------
// Critical-path analysis of a simulated step
// ---------------------------------------------------------------------------

enum class IntervalKind : std::uint8_t { kCompute, kExposedComm, kBubble };

std::string_view interval_kind_name(IntervalKind k);

struct Interval {
  double start_s = 0.0;
  double end_s = 0.0;
  IntervalKind kind = IntervalKind::kBubble;
};

/// One event on the recorded dependency chain ending at the makespan.
struct CriticalStep {
  std::string name;
  std::string category;  ///< "forward" / "backward" / "gradsync"
  int lane = 0;          ///< 0 = compute stream, 1 = comm stream
  double start_s = 0.0;
  double duration_s = 0.0;
};

struct CriticalPath {
  double makespan_s = 0.0;
  double compute_s = 0.0;       ///< compute stream busy
  double exposed_comm_s = 0.0;  ///< comm stream busy, compute stream idle
  double bubble_s = 0.0;        ///< both streams idle
  /// Maximal same-kind intervals tiling [0, makespan] exactly, so
  /// compute_s + exposed_comm_s + bubble_s == makespan_s by construction.
  std::vector<Interval> intervals;
  /// The pred chain walked back from the event finishing at the
  /// makespan, in time order — the narrative of where the step goes.
  std::vector<CriticalStep> steps;
};

/// Classifies the simulated schedule: every instant of [0, makespan_s] is
/// compute (compute lane busy), exposed comm (comm lane busy, compute
/// idle) or bubble (both idle). `steps` follows TraceEvent::pred from the
/// last-finishing event.
CriticalPath analyze_critical_path(const sim::Trace& trace,
                                   double makespan_s);

// ---------------------------------------------------------------------------
// PlanReport
// ---------------------------------------------------------------------------

/// Communication attributed to one name-scope family (Σ over instances).
struct CommContributor {
  std::string scope;  ///< family representative ("(other)" = top-K rest)
  int multiplicity = 0;
  std::int64_t events = 0;  ///< ledger entries aggregated
  std::int64_t bytes = 0;
  double seconds = 0.0;          ///< collective busy time
  double exposed_seconds = 0.0;  ///< contribution to the plan cost
};

/// What Algorithm 1's shared-subgraph folding saved (Table 1 / Fig. 7).
struct PruningAttribution {
  int fold_depth = 0;
  std::int64_t families = 0;
  std::int64_t folded_families = 0;      ///< multiplicity > 1
  std::int64_t duplicate_instances = 0;  ///< Σ (multiplicity − 1)
  /// Candidate plans enumerated with / without the fold (Σ per-family
  /// plan counts, duplicates re-multiplied for "without").
  std::int64_t plans_with_pruning = 0;
  std::int64_t plans_without_pruning = 0;
  double search_space_reduction = 1.0;  ///< without / with
};

struct PlanDiffEntry {
  std::string scope;  ///< family representative [+ member relname]
  int multiplicity = 1;
  std::string pattern_ours;
  std::string pattern_theirs;
  std::int64_t bytes_ours = 0;
  std::int64_t bytes_theirs = 0;
  double exposed_ours_s = 0.0;
  double exposed_theirs_s = 0.0;
  bool differs = false;  ///< pattern_ours != pattern_theirs
};

/// Node-by-node comparison of two ShardingPlans with per-scope cost
/// deltas (entries cover the weighted decision points; totals cover the
/// whole graph including glue conversions).
struct PlanDiff {
  std::string baseline;  ///< e.g. "Megatron"
  std::string mesh_ours;
  std::string mesh_theirs;
  double total_ours_s = 0.0;
  double total_theirs_s = 0.0;
  std::vector<PlanDiffEntry> entries;
};

/// p50/p95/p99 of one obs histogram (text rendering only — wall clock).
struct LatencySummary {
  std::string metric;
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct ReportOptions {
  int top_k = 10;  ///< comm contributors kept before the "(other)" rollup
  /// Simulation settings for the critical-path section (`trace` is
  /// ignored: the builder records its own).
  sim::SimOptions sim;
  std::string model_name;  ///< default: TapGraph::name()
  /// Include the process-wide obs latency quantiles in to_text(). Never
  /// part of the JSON (wall clock is non-deterministic).
  bool latency_section = true;
};

struct PlanReport {
  std::string model;
  int dp_replicas = 1;
  int num_shards = 1;
  /// How the plan came to be (complete / anytime / fallback) — the trust
  /// label ISSUE 5 threads from the planner into every surfaced artifact.
  core::PlanProvenance provenance;
  /// Recomputed with FinalizeCost's exact recipe (full-graph overlap
  /// window), so it matches TapResult::cost and the ledger sums.
  cost::PlanCost cost;
  /// Fraction of overlappable comm left exposed under that recipe.
  double exposed_fraction = 0.0;
  sim::StepBreakdown step;
  std::vector<CommContributor> contributors;  ///< sorted, top-K + rollup
  std::int64_t contributor_scopes = 0;  ///< scopes before the top-K cut
  PruningAttribution pruning;
  CriticalPath critical_path;
  std::optional<PlanDiff> diff;
  // --- text-only context (wall clock; excluded from to_json) ---
  double search_seconds = 0.0;
  std::vector<LatencySummary> latency;
};

/// Builds the report for `result` (a valid plan for `tg` planned under
/// `opts`): recomputes the comm ledger, simulates one step with
/// dependency recording, and aggregates attribution by the subgraph
/// families of pruning::prune_graph(tg, opts.prune). Everything is derived
/// from (tg, plan, opts), so a loaded or served plan reports what the
/// search that made it would.
PlanReport build_report(const ir::TapGraph& tg,
                        const core::TapResult& result,
                        const core::TapOptions& opts,
                        const ReportOptions& ropts = {});

/// Diffs result.best_plan against `theirs` (both must route on `tg`),
/// entry by pruned family member as in build_report, and attaches the
/// result to `r`.
void attach_baseline_diff(PlanReport* r, const ir::TapGraph& tg,
                          const core::TapResult& result,
                          const sharding::ShardingPlan& theirs,
                          const std::string& baseline_name,
                          const core::TapOptions& opts);

/// Deterministic JSON (core/serialize conventions: %.17g doubles).
std::string to_json(const PlanReport& r);
/// Inverse of to_json over its deterministic fields:
/// to_json(from_json(j)) == j byte-for-byte.
PlanReport from_json(const std::string& json);
/// Human-readable rendering (util::table) — what --explain prints.
std::string to_text(const PlanReport& r);

}  // namespace tap::report
