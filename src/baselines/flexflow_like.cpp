#include "baselines/flexflow_like.h"

#include <algorithm>
#include <cmath>

#include "baselines/whole_graph.h"
#include "ir/lowering.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace tap::baselines {

BaselineSearchResult flexflow_like_search(const Graph& g,
                                          const cost::ClusterSpec& cluster,
                                          const FlexFlowOptions& opts) {
  util::Stopwatch sw;
  util::Rng rng(opts.seed);
  BaselineSearchResult result;

  ir::LoweringOptions lop;
  lop.cluster_by_scope = false;
  ir::TapGraph tg = ir::lower(g, lop);
  if (tg.weight_nodes().empty()) return result;

  // The chain: each trial mutates one weighted op's pattern, issues the
  // O(V+E) full-graph cost query, and accepts by the Metropolis criterion.
  WholeGraphScorer scorer(tg, opts.num_shards, cluster);
  sharding::ShardingPlan current = sharding::default_plan(tg, opts.num_shards);
  double current_cost = 0.0;
  // When the data-parallel start does not route, the chain never starts.
  if (scorer.evaluate(current, &current_cost)) {
    sharding::ShardingPlan best = current;
    double best_cost = current_cost;
    result.plan_costs.push_back(current_cost);
    ++result.plans_evaluated;

    for (int trial = 0; trial < opts.trials; ++trial) {
      sharding::ShardingPlan next = current;
      scorer.mutate(&next, &rng);
      double next_cost = 0.0;
      if (!scorer.evaluate(next, &next_cost)) continue;
      ++result.plans_evaluated;
      result.plan_costs.push_back(next_cost);
      if (next_cost < best_cost) {
        best_cost = next_cost;
        best = next;
      }
      // Metropolis acceptance on relative cost. The <= 0 short-circuit
      // keeps the seed's RNG stream: downhill moves draw no random number.
      const double delta =
          (next_cost - current_cost) / std::max(current_cost, 1e-12);
      if (delta <= 0.0 ||
          rng.next_double() < std::exp(-delta / opts.temperature)) {
        current = std::move(next);
        current_cost = next_cost;
      }
    }
    result.found = true;
    result.best_cost = best_cost;
    result.best_plan = std::move(best);
  }
  result.ops_visited = scorer.ops_visited();
  result.cost_queries = scorer.cost_queries();
  result.search_seconds = sw.elapsed_seconds();
  return result;
}

}  // namespace tap::baselines
