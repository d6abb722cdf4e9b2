// Quickstart: derive a tensor-parallel plan for a T5 model on a 2-node
// cluster of 8 GPUs each, then estimate its training-step time.
//
//   build            -> a framework graph (tap::models or GraphBuilder)
//   ir::lower        -> the TAP IR (GraphNode clusters)
//   core::auto_parallel -> the best data/tensor parallel plan
//   rewrite::rewrite_graph -> the per-device SPMD graph
//   sim::simulate_step -> iteration time + memory on the cluster model
#include <cstdio>

#include "core/tap.h"
#include "core/visualize.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "rewrite/rewrite.h"
#include "sim/simulator.h"
#include "util/strings.h"

int main() {
  using namespace tap;

  // 1. A model. Any graph with TF-style name scopes works; here: T5 with
  //    8 encoder + 8 decoder layers.
  Graph model = models::build_transformer(models::t5_with_layers(8));
  std::printf("model: %s — %s trainable params, %zu ops\n",
              model.name().c_str(),
              util::human_count(static_cast<double>(model.total_params()))
                  .c_str(),
              model.num_nodes());

  // 2. Lower to the TAP IR.
  ir::LoweringStats lstats;
  ir::TapGraph tg = ir::lower(model, {}, &lstats);
  std::printf("lowered: %zu ops -> %zu GraphNodes (%zu weight variables)\n",
              lstats.original_nodes, lstats.graph_nodes,
              lstats.weight_variables);

  // 3. The physical system S(m, n): 2 nodes x 8 V100s over 32 Gbps
  //    Ethernet.
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);

  // 4. Search — sweeping every (dp, tp) device-mesh factorization (the
  //    paper's `tap.split(mesh)` front-end).
  core::TapResult result = core::auto_parallel_best_mesh(tg, opts);
  const pruning::PruneResult pruned = pruning::prune_graph(tg, opts.prune);
  opts.num_shards = result.best_plan.num_shards;
  opts.dp_replicas = result.best_plan.dp_replicas;
  std::printf("chosen mesh [dp, tp] = %s\n",
              result.best_plan.mesh().to_string().c_str());
  std::printf(
      "search: %lld candidates (%lld valid) in %.1f ms; "
      "%zu unique subgraphs, fold depth %d\n",
      static_cast<long long>(result.candidate_plans),
      static_cast<long long>(result.valid_plans),
      result.search_seconds * 1e3, pruned.unique_subgraphs(),
      pruned.fold_depth);
  std::printf("plan comm cost: %.1f ms/step (fwd %.1f + bwd %.1f)\n",
              result.cost.total() * 1e3, result.cost.forward_comm_s * 1e3,
              result.cost.backward_comm_s * 1e3);

  // 5. Inspect the discovered plan (Fig. 14 style).
  std::printf("%s", core::visualize_plan(tg, result.best_plan, pruned).c_str());

  // 6. Rewrite into the per-device SPMD graph.
  rewrite::RewriteResult rw =
      rewrite::rewrite_graph(model, tg, result.routed);
  std::printf("rewritten graph: %zu nodes (%zu collectives inserted, %zu "
              "aux restored)\n",
              rw.parallel.num_nodes(), rw.comm_nodes, rw.aux_restored);

  // 7. Simulate one training iteration.
  sim::StepBreakdown step =
      sim::simulate_step(tg, result.routed, opts.num_shards, opts.cluster);
  std::printf(
      "simulated step: %.1f ms (compute %.1f, comm busy %.1f, exposed "
      "%.1f); per-GPU memory %s\n",
      step.iteration_s * 1e3, step.compute_s() * 1e3, step.comm_s * 1e3,
      step.exposed_comm_s * 1e3,
      util::human_bytes(static_cast<double>(step.memory.total())).c_str());
  return 0;
}
