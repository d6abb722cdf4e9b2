// The e-commerce scenario of Fig. 3a: a ResNet-50 whose 100K-class
// classification layer (205M parameters) dwarfs the 24M feature extractor
// and does not fit comfortably on one accelerator. On the paper's 2x8 mesh
// (2 nodes of 8 V100s: dp 2 x tp 8) TAP shards the wide FC while keeping
// the convolutional trunk data parallel: the classifier's gradient
// all-reduce would cross the Ethernet link and outlast the backward pass.
// Exits 1 when TAP leaves the classifier unsplit.
#include <cstdio>
#include <iostream>

#include "core/planner_pipeline.h"
#include "core/tap.h"
#include "core/visualize.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "sim/simulator.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace tap;

  Graph model = models::build_resnet(models::resnet50(100'000));
  ir::TapGraph tg = ir::lower(model);

  NodeId fc = model.find("resnet50/head/fc/proj");
  std::printf("classifier weight: %s (%s params) vs whole trunk %s params\n",
              model.node(fc).weight->shape.to_string().c_str(),
              util::human_count(
                  static_cast<double>(model.node(fc).weight_params()))
                  .c_str(),
              util::human_count(static_cast<double>(
                                    model.total_params() -
                                    model.node(fc).weight_params()))
                  .c_str());

  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  core::TapResult r = core::auto_parallel(tg, opts);

  // How was the classifier sharded?
  auto fc_cluster = tg.find("resnet50/head/fc");
  const sharding::PatternTable patterns(tg, r.routed.num_shards,
                                        r.routed.dp_replicas);
  const sharding::ShardingPattern& fc_pattern =
      sharding::routed_pattern(patterns, r.routed, fc_cluster);
  std::printf("TAP shards the classifier as: %s\n",
              fc_pattern.to_string().c_str());

  // Compare against pure data parallelism.
  util::Table table({"plan", "comm cost ms", "step ms", "per-GPU memory"});
  auto report = [&](const char* name, const sharding::ShardingPlan& plan) {
    auto routed = sharding::route_plan(tg, plan);
    if (!routed.valid) return;
    // The planner's own recipe, so "TAP best" prints the planner's cost.
    auto cost = core::finalize_cost(tg, routed, opts.cluster);
    auto step =
        sim::simulate_step(tg, routed, opts.num_shards, opts.cluster);
    table.add_row({name, util::fmt("%.2f", cost.total() * 1e3),
                   util::fmt("%.1f", step.iteration_s * 1e3),
                   util::human_bytes(
                       static_cast<double>(step.memory.total()))});
  };
  report("TAP best", r.best_plan);
  report("pure DP",
         sharding::default_plan(tg, opts.num_shards, opts.dp_replicas));
  table.print(std::cout);
  if (!fc_pattern.weight.is_split()) {
    std::printf("error: TAP left the classifier weight unsplit\n");
    return 1;
  }
  return 0;
}
