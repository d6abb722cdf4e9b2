// Alpa-like two-level automatic parallelism baseline (§5.1.2, §6.3).
//
// A from-scratch re-implementation of the *search structure* the paper
// compares against, at the same asymptotics as Table 2 row "Alpa":
//   * operates on the k×-finer op-level IR (no name-scope clustering, no
//     subgraph folding) — its work scales with the whole graph;
//   * profiles every operator before searching (real profilers take
//     repeated measurements per op; we query the roofline model
//     `profile_repeats` times per op, simulating that cost);
//   * outer loop: O(V²·L) dynamic program over pipeline-stage partitions
//     of the operator sequence (à la TeraPipe), balancing per-stage cost;
//   * inner loop: per candidate partition, a randomized intra-op search
//     (ILP surrogate) that mutates per-op sharding choices and re-routes
//     the FULL op-level graph per trial, keeping the cheapest valid plan.
//
// Absolute seconds are ours, not Alpa's; the 20×–160× TAP speedup of
// Figs. 9/10 reproduces because the *structure* (full-graph work vs
// folded-subgraph work) is faithful. The candidate shortlist knob
// (`max_candidate_plans`) matches the paper's 16-plan (T5) and 5-plan
// (ResNet) setting.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/cost_model.h"
#include "sharding/plan.h"

namespace tap::baselines {

struct AlpaOptions {
  int num_shards = 8;
  /// Shortlist size for candidate (stage partition × intra-op) plans.
  int max_candidate_plans = 16;
  int max_pipeline_stages = 8;
  /// Randomized intra-op trials per candidate partition (ILP surrogate).
  int intra_op_trials = 32;
  /// Simulated per-op profiling repetitions (real measurement medians).
  int profile_repeats = 500;
  /// Logical device-mesh shapes enumerated per stage count (Alpa explores
  /// several (rows, cols) meshes for every partition).
  int mesh_shapes = 4;
  /// Relative stddev of simulated profiling measurements. Real on-device
  /// profiling is noisy, which is why Alpa's discovered plans vary run to
  /// run (the variance bands of Figs. 11/12).
  double profile_noise = 0.05;
  std::uint64_t seed = 1234;
};

/// One candidate the search fully evaluated (the paper's variance bands
/// plot the spread of these).
struct EvaluatedPlan {
  sharding::ShardingPlan plan;
  int stages = 1;       ///< pipeline stages (plan is per-stage-group)
  double search_cost = 0.0;
};

struct BaselineSearchResult {
  sharding::ShardingPlan best_plan;
  int best_stages = 1;
  double best_cost = 0.0;
  bool found = false;
  std::vector<EvaluatedPlan> evaluated;
  /// Work counters for the empirical Table 2.
  std::int64_t ops_visited = 0;
  std::int64_t cost_queries = 0;
  int plans_evaluated = 0;
  double search_seconds = 0.0;
  /// Wall time the profiling stage would take on real hardware (each
  /// repeat actually launches the kernel there): Σ measured-op-time ×
  /// repeats. Our analytic profiler costs ~nothing, so report this
  /// separately for end-to-end comparisons (the paper's Alpa spent ~5
  /// minutes profiling T5-large).
  double simulated_profiling_seconds = 0.0;
  /// Cost of every evaluated candidate (the variance band of Figs 11/12).
  std::vector<double> plan_costs;
};

/// Runs the Alpa-like search over `g` on `cluster`. The returned plan is
/// an assignment on the *op-level* TapGraph lowering of `g`; evaluate it
/// by re-lowering with cluster_by_scope=false.
BaselineSearchResult alpa_like_search(const Graph& g,
                                      const cost::ClusterSpec& cluster,
                                      const AlpaOptions& opts);

}  // namespace tap::baselines
