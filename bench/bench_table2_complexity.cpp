// Table 2: complexities of selected auto-parallel frameworks, measured
// empirically. We count the work units (operators visited during search,
// including profiling and DP transitions) for FlexFlow-like MCMC,
// Alpa-like two-level search, and TAP while scaling T5 depth. TAP's counts
// must stay (near-)flat while both baselines grow superlinearly.
//
// "TAP nodes visited" is the count the plan bytes pin: every member of
// every family candidate plus the whole graph per GlobalRefine probe.
// "TAP family routed" and "TAP refine routed" are what the router
// actually stepped through in FamilySearch (planner.family.nodes_routed)
// and in GlobalRefine (planner.refine.nodes_routed). A family is decided
// by a DP over router frontier states: "TAP DP steps"
// (planner.family.dp_steps) are its (state, choice) steps, each routing
// one member from a restored state; the rest of the family count is the
// few candidates its winner step scores exactly. GlobalRefine routes the
// whole graph once for the assembled plan and once per revert probe whose
// family is not already all zeros, and adds V per route. A last section
// counts planner.refine.nodes_routed and planner.family.dp_steps over a
// whole 2x8 mesh sweep of T5-8/24/48L (auto_parallel_best_mesh on two
// V100 nodes) and prints the refine 48L/8L ratio; it is reported, not
// gated.
#include "baselines/alpa_like.h"
#include "baselines/flexflow_like.h"
#include "bench_common.h"

int main() {
  using namespace tap;
  bench::header("Table 2 — empirical search complexity", "paper Table 2");

  util::Table table({"layers", "ops (V)", "FlexFlow ops", "Alpa ops",
                     "TAP nodes visited", "TAP family routed",
                     "TAP DP steps", "TAP refine routed", "TAP candidates"});
  bench::BenchReporter report("table2_complexity");
  obs::MetricsRegistry& reg = obs::registry();
  obs::Counter* family_routed = reg.counter("planner.family.nodes_routed");
  obs::Counter* refine_routed = reg.counter("planner.refine.nodes_routed");
  obs::Counter* dp_steps = reg.counter("planner.family.dp_steps");
  cost::ClusterSpec cluster = cost::ClusterSpec::v100_node();

  std::int64_t first_alpa = 0, first_tap = 0, last_alpa = 0, last_tap = 0;
  for (int layers : {2, 4, 8}) {
    bench::Workload w = bench::t5_workload(layers);

    baselines::FlexFlowOptions ff;
    ff.num_shards = 8;
    ff.trials = 50;
    auto ffr = baselines::flexflow_like_search(w.graph, cluster, ff);

    baselines::AlpaOptions al;
    al.num_shards = 8;
    al.max_candidate_plans = 4;
    al.intra_op_trials = 4;
    al.profile_repeats = 20;
    auto alr = baselines::alpa_like_search(w.graph, cluster, al);

    core::TapOptions topts;
    topts.num_shards = 8;
    topts.cluster = cluster;
    const std::uint64_t family_before = family_routed->value();
    const std::uint64_t refine_before = refine_routed->value();
    const std::uint64_t steps_before = dp_steps->value();
    auto tr = core::auto_parallel(w.tg, topts);
    const std::uint64_t family = family_routed->value() - family_before;
    const std::uint64_t steps = dp_steps->value() - steps_before;
    const std::uint64_t refine = refine_routed->value() - refine_before;

    if (first_alpa == 0) {
      first_alpa = alr.ops_visited;
      first_tap = tr.nodes_visited;
    }
    last_alpa = alr.ops_visited;
    last_tap = tr.nodes_visited;

    table.add_row({std::to_string(layers), std::to_string(w.graph.num_nodes()),
                   std::to_string(ffr.ops_visited),
                   std::to_string(alr.ops_visited),
                   std::to_string(tr.nodes_visited), std::to_string(family),
                   std::to_string(steps), std::to_string(refine),
                   std::to_string(tr.candidate_plans)});
    const std::string key = "t5_" + std::to_string(layers) + "l_";
    report.add(key + "nodes_visited", static_cast<double>(tr.nodes_visited));
    report.add(key + "family_nodes_routed", static_cast<double>(family));
    report.add(key + "dp_steps", static_cast<double>(steps));
    report.add(key + "refine_nodes_routed", static_cast<double>(refine));
    report.add(key + "candidates", static_cast<double>(tr.candidate_plans));
  }
  table.print(std::cout);
  std::printf(
      "\n2->8 layer growth: Alpa-like %.1fx (superlinear: V^2*L stage DP), "
      "TAP %.1fx (sublinear: folded subgraph search)\n",
      static_cast<double>(last_alpa) / static_cast<double>(first_alpa),
      static_cast<double>(last_tap) / static_cast<double>(first_tap));
  std::printf("analytic rows (paper): FlexFlow O(BV+BE); Alpa O(V^2 L (V + "
              "E^2)); TAP O((E+V)/L)\n");

  // GlobalRefine's full-graph routing over a whole 2x8 mesh sweep, the
  // depth scaling that folding identical instances would flatten.
  std::printf("\nGlobalRefine routing and DP steps per 2x8 mesh sweep:\n");
  core::TapOptions sweep;
  sweep.cluster = cost::ClusterSpec::v100_cluster(2);
  sweep.threads = 1;
  double shallow = 0.0, deep = 0.0;
  for (int layers : {8, 24, 48}) {
    bench::Workload w = bench::t5_workload(layers);
    const std::uint64_t before = refine_routed->value();
    const std::uint64_t steps_before = dp_steps->value();
    core::auto_parallel_best_mesh(w.tg, sweep);
    const auto routed = static_cast<double>(refine_routed->value() - before);
    const auto steps = static_cast<double>(dp_steps->value() - steps_before);
    std::printf("  T5-%dL: %.0f refine routed, %.0f DP steps\n", layers,
                routed, steps);
    const std::string key = "sweep_2x8_t5_" + std::to_string(layers) + "l_";
    report.add(key + "refine_nodes_routed", routed);
    report.add(key + "dp_steps", steps);
    if (layers == 8) shallow = routed;
    if (layers == 48) deep = routed;
  }
  std::printf("  T5-48L/T5-8L: %.2fx\n", deep / shallow);
  report.add("sweep_2x8_refine_nodes_routed_48l_over_8l", deep / shallow);
  return 0;
}
