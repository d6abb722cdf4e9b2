#include "baselines/alpa_like.h"

#include <algorithm>

#include "baselines/whole_graph.h"
#include "core/plan_context.h"
#include "cost/flops.h"
#include "ir/lowering.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace tap::baselines {

namespace {

struct Candidate {
  int stages = 1;
  double balance = 0.0;  ///< bottleneck stage cost (lower = better)
};

}  // namespace

BaselineSearchResult alpa_like_search(const Graph& g,
                                      const cost::ClusterSpec& cluster,
                                      const AlpaOptions& opts) {
  util::Stopwatch sw;
  util::Rng rng(opts.seed);
  BaselineSearchResult result;

  // k×-finer IR: one node per op, no folding.
  ir::LoweringOptions lop;
  lop.cluster_by_scope = false;
  ir::TapGraph tg = ir::lower(g, lop);
  const std::size_t V = tg.num_nodes();
  if (V == 0) return result;

  // --- operator profiling (§6.3.1: Alpa spends minutes here) ---------------
  std::vector<double> op_cost(V, 0.0);
  const std::vector<ir::GraphNodeId> order = tg.topo_order();
  for (ir::GraphNodeId id : order) {
    const auto& gn = tg.node(id);
    double measured = 0.0;
    for (int r = 0; r < opts.profile_repeats; ++r) {
      double sample = 0.0;
      for (NodeId op : gn.ops)
        sample += cost::op_time(g.node(op), g, cluster);
      sample *= 1.0 + opts.profile_noise * rng.normal();
      measured = std::max(measured, sample);
      result.simulated_profiling_seconds += sample;
      ++result.ops_visited;
    }
    op_cost[static_cast<std::size_t>(id)] = measured;
  }

  // --- outer loop: O(V²·L) stage-partition DP (inter-op) -------------------
  // Minimize the bottleneck stage cost over contiguous partitions of the
  // operator sequence into k stages.
  std::vector<double> prefix(V + 1, 0.0);
  for (std::size_t i = 0; i < V; ++i)
    prefix[i + 1] =
        prefix[i] + op_cost[static_cast<std::size_t>(order[i])];
  auto range_cost = [&](std::size_t a, std::size_t b) {  // ops [a, b)
    return prefix[b] - prefix[a];
  };

  const int max_k = std::max(
      1, std::min({opts.max_pipeline_stages, static_cast<int>(V),
                   opts.num_shards}));
  std::vector<Candidate> candidates;
  for (int k = 1; k <= max_k; ++k) {
    if (opts.num_shards % k != 0) continue;  // stages × group = world
    // Alpa enumerates several logical device-mesh shapes per stage count;
    // the DP re-runs per mesh (same asymptotics, bigger constant).
    for (int mesh = 0; mesh < std::max(1, opts.mesh_shapes); ++mesh) {
      // dp[j][i]: best bottleneck splitting the first i ops into j stages.
      std::vector<std::vector<double>> dp(
          static_cast<std::size_t>(k) + 1,
          std::vector<double>(V + 1, core::kInvalidPlanCost));
      dp[0][0] = 0.0;
      for (int j = 1; j <= k; ++j) {
        for (std::size_t i = 1; i <= V; ++i) {
          for (std::size_t t = static_cast<std::size_t>(j) - 1; t < i;
               ++t) {
            ++result.ops_visited;
            const double cand =
                std::max(dp[static_cast<std::size_t>(j) - 1][t],
                         range_cost(t, i));
            dp[static_cast<std::size_t>(j)][i] =
                std::min(dp[static_cast<std::size_t>(j)][i], cand);
          }
        }
      }
      if (mesh == 0)
        candidates.push_back({k, dp[static_cast<std::size_t>(k)][V]});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.balance < b.balance;
            });
  if (static_cast<int>(candidates.size()) > opts.max_candidate_plans)
    candidates.resize(static_cast<std::size_t>(opts.max_candidate_plans));

  // --- inner loop: randomized intra-op search per candidate ----------------
  // Hill-climbing on communication cost over the whole op-level graph (the
  // ILP surrogate): each trial mutates one weighted op's pattern and
  // re-routes the FULL graph. The candidate's pipeline terms are constant
  // per stage partition, so they drop out of the comparison. A graph with
  // no weighted op has nothing to decide and no trial to run.
  constexpr int kMicrobatches = 8;
  for (const Candidate& cand : candidates) {
    const int group = std::max(1, opts.num_shards / cand.stages);
    WholeGraphScorer scorer(tg, group, cluster);
    sharding::ShardingPlan plan = sharding::default_plan(tg, group);
    double comm = core::kInvalidPlanCost;
    if (!scorer.weighted().empty()) {
      double c0 = core::kInvalidPlanCost;
      if (scorer.evaluate(plan, &c0)) comm = c0;
      for (int trial = 0; trial < opts.intra_op_trials; ++trial) {
        sharding::ShardingPlan mutated = plan;
        scorer.mutate(&mutated, &rng);
        double c = core::kInvalidPlanCost;
        if (scorer.evaluate(mutated, &c) && c < comm) {
          comm = c;
          plan = std::move(mutated);
        }
      }
    }
    result.ops_visited += scorer.ops_visited();
    result.cost_queries += scorer.cost_queries();

    const double stage_compute = cand.balance / static_cast<double>(group);
    const double bubble =
        static_cast<double>(cand.stages - 1) / kMicrobatches;
    const double best = comm == core::kInvalidPlanCost
                            ? core::kInvalidPlanCost
                            : comm + stage_compute * (1.0 + bubble);
    ++result.plans_evaluated;
    result.plan_costs.push_back(best);
    result.evaluated.push_back({plan, cand.stages, best});
    if (!result.found || best < result.best_cost) {
      result.found = true;
      result.best_cost = best;
      result.best_stages = cand.stages;
      result.best_plan = std::move(plan);
    }
  }

  result.search_seconds = sw.elapsed_seconds();
  return result;
}

}  // namespace tap::baselines
