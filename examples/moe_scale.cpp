// Mixture-of-experts at M6 scale (§6.5): expert-parallel sharding of a
// 100B-parameter MoE transformer, plus the scaling-law loss projection
// behind Fig. 15.
#include <cstdio>
#include <iostream>

#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "sim/loss_curve.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace tap;

  Graph model = models::build_moe_transformer(models::m6_100b());
  std::printf("%s: %s params\n", model.name().c_str(),
              util::human_count(static_cast<double>(model.total_params()))
                  .c_str());

  ir::TapGraph tg = ir::lower(model);
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(16);  // 128 GPUs
  opts.num_shards = opts.cluster.world();
  core::TapResult r = core::auto_parallel(tg, opts);

  auto moe = tg.find("m6_moe_100b/encoder/block_0/moe");
  const sharding::PatternTable patterns(tg, r.routed.num_shards,
                                        r.routed.dp_replicas);
  std::printf("MoE layer sharded as: %s (searched %lld candidates in %.0f "
              "ms)\n",
              sharding::routed_pattern(patterns, r.routed, moe).name.c_str(),
              static_cast<long long>(r.candidate_plans),
              r.search_seconds * 1e3);

  // Fig. 15 flavor: project training loss for 100B vs 1T parameters.
  sim::LossCurveConfig c100;
  c100.params = 1e11;
  c100.steps = 500;
  sim::LossCurveConfig c1t = c100;
  c1t.params = 1e12;
  auto l100 = sim::simulate_loss_curve(c100);
  auto l1t = sim::simulate_loss_curve(c1t);
  util::Table table({"step", "M6-MoE-100B loss", "M6-MoE-1T loss"});
  for (int s : {0, 100, 200, 300, 400, 499}) {
    table.add_row({std::to_string(s),
                   util::fmt("%.3f", l100[static_cast<std::size_t>(s)]),
                   util::fmt("%.3f", l1t[static_cast<std::size_t>(s)])});
  }
  table.print(std::cout);
  return 0;
}
