// Ablation (DESIGN.md decision 3): is the communication-only cost model a
// good proxy for simulated step time? We enumerate all 729 encoder-block
// candidates of a T5, score each with (a) the comm cost model and (b) the
// full discrete-event simulator, and report the rank agreement (Kendall
// tau over sampled pairs) and whether the comm-cost winner is within a few
// percent of the simulation winner.
//
// Then the per-sweep table: for every perfbench plan_cold model and every
// Table 1 model at 8, 16 and 32 GPUs, TAP plans each (dp, tp) mesh of the
// sweep. The mesh the cost picks (the sweep's winner) is set against the
// mesh the simulator would pick; regret is the cost-chosen mesh's
// simulated step over the best one's. Each row also gives the chosen
// plan's estimate_memory per device against ClusterSpec::gpu_memory.
// Report only: the sweep ranks by cost alone, and neither the regret nor
// the memory is gated yet.
#include <functional>

#include "bench_common.h"
#include "pruning/prune.h"
#include "service/wire.h"
#include "sharding/enumerate.h"

namespace {

using namespace tap;

struct SweepModel {
  std::string name;
  std::function<Graph()> build;
};

/// perfbench plan_cold's zoo, then Table 1's.
std::vector<SweepModel> sweep_models() {
  std::vector<SweepModel> out;
  const std::pair<const char*, int> plan_cold[] = {
      {"t5", 8},   {"t5", 24}, {"t5", 48},      {"bert", 24},
      {"gpt3", 8}, {"moe", 8}, {"resnet50", 50}};
  for (const auto& [model, layers] : plan_cold) {
    service::ModelSpec spec;
    spec.model = model;
    spec.layers = layers;
    const std::string name = spec.model == "resnet50"
                                 ? spec.model
                                 : spec.model + "_" + std::to_string(layers) +
                                       "l";
    out.push_back({name, [spec] { return service::build_spec_model(spec); }});
  }
  for (const models::ZooEntry& e : models::table1_zoo())
    out.push_back({e.model, e.build});
  return out;
}

/// One mesh of a sweep, planned by TAP.
struct MeshRow {
  int tp = 0;
  double cost_s = 0.0;
  double step_s = 0.0;
  std::int64_t memory = 0;  ///< estimate_memory per device
};

}  // namespace

int main() {
  bench::header("Ablation — comm-only cost model vs full simulation",
                "DESIGN.md decision 3");

  cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  bench::Workload w = bench::t5_workload(2);
  pruning::PruneResult pr = pruning::prune_graph(w.tg);
  const pruning::SubgraphFamily* block = nullptr;
  for (const auto& f : pr.families)
    if (f.representative.find("encoder/block_0") != std::string::npos)
      block = &f;
  if (block == nullptr) return 1;

  const sharding::PatternTable table(w.tg, cluster.world(), 1);
  sharding::FamilyPlanEnumerator e(table, *block);
  std::vector<double> comm, simt;
  std::vector<int> choice;
  while (e.next(&choice)) {
    sharding::ShardingPlan plan =
        sharding::default_plan(w.tg, cluster.world());
    sharding::apply_family_choice(*block, choice, &plan);
    auto routed = sharding::route_plan(w.tg, plan, &table);
    if (!routed.valid) continue;
    comm.push_back(
        cost::comm_cost(routed, cluster,
                        cost::backward_compute_window(w.tg, routed, nullptr,
                                                      cluster))
            .total());
    simt.push_back(
        sim::simulate_step(w.tg, routed, cluster.world(), cluster)
            .iteration_s);
  }

  // Kendall tau over a deterministic pair sample.
  std::size_t n = comm.size();
  long long concordant = 0, discordant = 0;
  for (std::size_t i = 0; i < n; i += 3) {
    for (std::size_t j = i + 1; j < n; j += 7) {
      double dc = comm[i] - comm[j];
      double ds = simt[i] - simt[j];
      if (dc * ds > 0) {
        ++concordant;
      } else if (dc * ds < 0) {
        ++discordant;
      }
    }
  }
  double tau = static_cast<double>(concordant - discordant) /
               std::max(1.0, static_cast<double>(concordant + discordant));

  std::size_t best_comm = 0, best_sim = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (comm[i] < comm[best_comm]) best_comm = i;
    if (simt[i] < simt[best_sim]) best_sim = i;
  }
  double regret =
      (simt[best_comm] - simt[best_sim]) / simt[best_sim] * 100.0;

  std::printf("plans scored: %zu\n", n);
  std::printf("Kendall tau (comm cost vs simulated step): %.3f\n", tau);
  std::printf("regret of comm-cost winner vs simulation winner: %.2f%%\n",
              regret);
  std::printf("verdict: the comm-only model is a %s proxy (paper uses it "
              "because communication dominates once groups span nodes)\n",
              tau > 0.5 && regret < 10.0 ? "good" : "rough");
  bench::BenchReporter report("ablation_cost_model");
  report.add("block_kendall_tau", tau);
  report.add("block_regret_pct", regret);

  // --- per-sweep table -----------------------------------------------------
  std::printf("\nper-sweep table: cost-chosen vs simulator-chosen mesh\n");
  util::Table sweep_table({"model", "GPUs", "cost tp", "sim tp", "regret",
                           "memory/device", "gpu_memory"});
  int sweeps = 0, over_1_05 = 0, over_memory = 0;
  double max_regret = 0.0;
  std::string max_regret_sweep;
  util::Stopwatch sw;
  for (const SweepModel& m : sweep_models()) {
    const Graph g = m.build();
    const ir::TapGraph tg = ir::lower(g);
    for (int nodes : {1, 2, 4}) {
      const cost::ClusterSpec c = cost::ClusterSpec::v100_cluster(nodes);
      std::vector<MeshRow> rows;
      for (int tp : core::sweep_tps(c.world())) {
        core::TapOptions opts;
        opts.cluster = c;
        opts.num_shards = tp;
        opts.dp_replicas = c.world() / tp;
        opts.threads = 1;
        const core::TapResult r = core::auto_parallel(tg, opts);
        rows.push_back(
            {tp, r.cost.total(),
             sim::simulate_step(tg, r.routed, tp, c).iteration_s,
             cost::estimate_memory(tg, r.routed).total()});
      }
      // The sweep's tie rule: the smaller tp wins an equal cost.
      const MeshRow* by_cost = &rows[0];
      const MeshRow* by_sim = &rows[0];
      bool any_fits = false;
      for (const MeshRow& row : rows) {
        if (row.cost_s < by_cost->cost_s) by_cost = &row;
        if (row.step_s < by_sim->step_s) by_sim = &row;
        any_fits |= static_cast<double>(row.memory) <= c.gpu_memory;
      }
      const double regret = by_cost->step_s / by_sim->step_s;
      const bool fits = static_cast<double>(by_cost->memory) <= c.gpu_memory;
      ++sweeps;
      if (regret > 1.05) ++over_1_05;
      if (!fits && any_fits) ++over_memory;
      if (regret > max_regret) {
        max_regret = regret;
        max_regret_sweep =
            m.name + " at " + std::to_string(c.world()) + " GPUs";
      }
      sweep_table.add_row(
          {m.name, std::to_string(c.world()), std::to_string(by_cost->tp),
           std::to_string(by_sim->tp), util::fmt("%.2f", regret),
           util::human_bytes(static_cast<double>(by_cost->memory)),
           util::human_bytes(c.gpu_memory)});
    }
  }
  sweep_table.print(std::cout);
  std::printf("%d sweeps in %.2f s; regret > 1.05 in %d; largest %.2f (%s); "
              "the cost-chosen mesh exceeds gpu_memory while another mesh "
              "fits in %d\n",
              sweeps, sw.elapsed_seconds(), over_1_05, max_regret,
              max_regret_sweep.c_str(), over_memory);
  report.add("sweeps", sweeps);
  report.add("sweeps_regret_over_1_05", over_1_05);
  report.add("max_regret", max_regret);
  report.note("max_regret_sweep", max_regret_sweep);
  report.add("sweeps_chosen_over_memory", over_memory);
  return 0;
}
