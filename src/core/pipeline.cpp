#include "core/pipeline.h"

#include <algorithm>

#include "cost/flops.h"
#include "util/check.h"

namespace tap::core {

PipelineResult auto_parallel_pipelined(const ir::TapGraph& tg,
                                       const TapOptions& opts,
                                       const PipelineOptions& pipeline) {
  TAP_CHECK_GE(pipeline.stages, 1);
  TAP_CHECK_GE(pipeline.microbatches, 1);
  TAP_CHECK_EQ(opts.num_shards % pipeline.stages, 0)
      << "device world must divide into pipeline stages";

  PipelineResult result;
  result.stages = pipeline.stages;
  result.microbatches = pipeline.microbatches;

  // --- stage partition: greedy balance of per-cluster forward compute ------
  const std::vector<ir::GraphNodeId> order = tg.cached_topo_order();
  std::vector<double> weight(order.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& n = tg.node(order[i]);
    for (NodeId op : n.ops)
      weight[i] += cost::op_time(tg.op_work(op), opts.cluster);
    total += weight[i];
  }

  result.cuts.push_back(0);
  double acc = 0.0;
  double worst = 0.0;
  double stage_acc = 0.0;
  const double target = total / pipeline.stages;
  for (std::size_t i = 0; i < order.size(); ++i) {
    acc += weight[i];
    stage_acc += weight[i];
    if (static_cast<int>(result.cuts.size()) < pipeline.stages &&
        acc >= target * static_cast<double>(result.cuts.size())) {
      result.cuts.push_back(i + 1);
      worst = std::max(worst, stage_acc);
      stage_acc = 0.0;
    }
  }
  while (static_cast<int>(result.cuts.size()) < pipeline.stages)
    result.cuts.push_back(order.size());
  result.cuts.push_back(order.size());
  worst = std::max(worst, stage_acc);
  result.bottleneck_fraction = total > 0.0 ? worst / total : 1.0;
  result.bubble_fraction =
      static_cast<double>(pipeline.stages - 1) / pipeline.microbatches;

  // Activation bytes crossing each boundary (edges spanning the cut).
  for (std::size_t c = 1; c + 1 < result.cuts.size(); ++c) {
    std::vector<bool> before(tg.num_nodes(), false);
    for (std::size_t i = 0; i < result.cuts[c]; ++i)
      before[static_cast<std::size_t>(order[i])] = true;
    std::int64_t bytes = 0;
    for (const auto& n : tg.nodes()) {
      if (before[static_cast<std::size_t>(n.id)]) continue;
      for (ir::GraphNodeId in : n.inputs)
        if (before[static_cast<std::size_t>(in)])
          bytes += tg.node(in).output.size_bytes();
    }
    result.boundary_bytes.push_back(bytes);
  }

  // --- per-stage TAP plan ----------------------------------------------------
  // Folded blocks repeat across stages, so one search covers all of them;
  // each stage's tensor-parallel group has world/stages devices.
  TapOptions stage_opts = opts;
  stage_opts.num_shards = opts.num_shards / pipeline.stages;
  if (stage_opts.num_shards < 1) stage_opts.num_shards = 1;
  result.inner = auto_parallel(tg, stage_opts);
  return result;
}

double pipeline_iteration_estimate(const PipelineResult& r,
                                   double whole_model_step_s) {
  // All stages run concurrently on different microbatches, so the
  // iteration is paced by the bottleneck stage (its fraction of the whole
  // model's work), stretched by the fill/drain bubble. Perfect balance
  // gives whole/stages x (1 + bubble).
  return whole_model_step_s * r.bottleneck_fraction *
         (1.0 + r.bubble_fraction);
}

}  // namespace tap::core
