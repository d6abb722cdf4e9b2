// Fig. 14: visualization of the sharding plans TAP discovers for T5.
// The paper shows TAP finding not only Megatron-style and data-parallel
// plans but also the partial MHA-only and FFN-only plans; on its testbed
// the surprising winner was FFN-only (attention replicated, feed-forward
// sharded). We render the four expert plans plus TAP's discovered best,
// in two regimes: the paper's batch 16, and batch 4 where activations are
// cheap relative to weights and full sharding wins.
#include "bench_common.h"
#include "core/planner_pipeline.h"
#include "core/visualize.h"

int main() {
  using namespace tap;
  bench::header("Fig. 14 — discovered sharding plans for T5",
                "paper Fig. 14");

  cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  {
    bench::Workload w = bench::t5_workload(4, /*batch=*/16);
    pruning::PruneResult pruned = pruning::prune_graph(w.tg);
    for (const char* name : {"DP", "MHA", "FFN", "Megatron"}) {
      auto plan = baselines::named_expert_plan(name, w.tg, cluster.world());
      std::cout << "---- expert plan: " << name << " ----\n";
      // Per-op comm annotations come from the attribution ledger
      // core::finalize_cost fills — the same source --explain reports read.
      auto routed = sharding::route_plan(w.tg, plan);
      cost::CommLedger ledger;
      core::finalize_cost(w.tg, routed, cluster, &ledger);
      // Show only the encoder block family to keep the figure readable.
      pruning::PruneResult block_only;
      for (const auto& f : pruned.families)
        if (f.representative.find("encoder/block_0") != std::string::npos)
          block_only.families.push_back(f);
      std::cout << core::visualize_plan(w.tg, plan, block_only, &ledger);
    }
  }

  for (std::int64_t batch : {16, 4}) {
    bench::Workload w = bench::t5_workload(4, batch);
    core::TapOptions topts;
    topts.num_shards = cluster.world();
    topts.cluster = cluster;
    auto tap = core::auto_parallel(w.tg, topts);
    cost::CommLedger ledger;
    core::finalize_cost(w.tg, tap.routed, cluster, &ledger);
    std::cout << "---- TAP discovered best (batch " << batch << ") ----\n";
    std::cout << core::visualize_plan(w.tg, tap.best_plan,
                                      pruning::prune_graph(w.tg, topts.prune),
                                      &ledger);
    std::printf("search: %lld candidates, %.1f ms, comm cost %.2f ms\n\n",
                static_cast<long long>(tap.candidate_plans),
                tap.search_seconds * 1e3, tap.cost.total() * 1e3);
  }
  std::cout << "At batch 16 gradient traffic dominates, so TAP keeps "
               "weights replicated where the batch divides; at batch 4 "
               "(more GPUs than samples) activations are cheap and TAP "
               "discovers the fully/partially sharded plans of the "
               "paper's figure.\n";
  return 0;
}
