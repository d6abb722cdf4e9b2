// Depth-scaling study (the Fig. 9 scenario as an API walkthrough): grow a
// dense transformer from 8 to 48 layers and watch TAP's search work stay
// flat while the model grows — the shared-subgraph folding at work.
#include <cstdio>
#include <iostream>

#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace tap;
  util::Table table({"layers", "params", "GraphNodes", "unique subgraphs",
                     "candidates", "search ms", "best plan comm ms"});

  for (int layers : {8, 16, 32, 48}) {
    Graph model = models::build_transformer(models::t5_with_layers(layers));
    ir::TapGraph tg = ir::lower(model);

    core::TapOptions opts;
    opts.cluster = cost::ClusterSpec::v100_cluster(2);
    opts.num_shards = opts.cluster.world();
    core::TapResult r = core::auto_parallel(tg, opts);

    table.add_row(
        {std::to_string(layers),
         util::human_count(static_cast<double>(model.total_params())),
         std::to_string(tg.num_nodes()),
         std::to_string(
             pruning::prune_graph(tg, opts.prune).unique_subgraphs()),
         std::to_string(r.candidate_plans),
         util::fmt("%.1f", r.search_seconds * 1e3),
         util::fmt("%.2f", r.cost.total() * 1e3)});
  }
  table.print(std::cout);
  std::printf("\nNote: candidates and unique subgraphs are flat in depth — "
              "TAP searches one transformer block, not the whole stack.\n");
  return 0;
}
