// Micro benches for the TAP pipeline stages: lowering, pruning,
// per-candidate subgraph routing, full-graph routing, cost queries, one
// simulated training step, the SPMD rewrite and a tiny autodiff pass.
// These quantify the per-stage costs behind Table 2's complexity rows.
//
// Each figure is the time of one call. Calls are batched so a timed run
// lasts about kRunMs, and the median of kRuns runs (bench::repeat_ms) is
// printed; BenchReporter records min/median/p90 per call.
#include <map>

#include "bench_common.h"
#include "pruning/prune.h"
#include "rewrite/rewrite.h"
#include "runtime/autodiff.h"

namespace {

using namespace tap;

constexpr int kRuns = 7;
constexpr double kRunMs = 20.0;

/// Keeps the compiler from discarding `v` and the work that made it.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

const Graph& t5_graph(int layers) {
  static std::map<int, Graph> cache;
  auto it = cache.find(layers);
  if (it == cache.end()) {
    it = cache
             .emplace(layers, models::build_transformer(
                                  models::t5_with_layers(layers)))
             .first;
  }
  return it->second;
}

const ir::TapGraph& t5_ir(int layers) {
  static std::map<int, ir::TapGraph> cache;
  auto it = cache.find(layers);
  if (it == cache.end()) {
    it = cache.emplace(layers, ir::lower(t5_graph(layers))).first;
  }
  return it->second;
}

class MicroBench {
 public:
  MicroBench()
      : table_({"bench", "calls/run", "median", "min", "p90"}),
        report_("micro_pipeline") {}

  /// Times one call of `fn` and records it as `name`.
  template <typename Fn>
  void run(const std::string& name, Fn&& fn) {
    util::Stopwatch once;
    keep(fn());
    const double once_ms = std::max(once.elapsed_seconds() * 1e3, 1e-6);
    const int calls = std::clamp(static_cast<int>(kRunMs / once_ms), 1,
                                 1 << 20);
    bench::RepeatStats s = bench::repeat_ms(kRuns, [&] {
      for (int i = 0; i < calls; ++i) keep(fn());
    });
    s.min_ms /= calls;
    s.median_ms /= calls;
    s.p90_ms /= calls;
    table_.add_row({name, std::to_string(calls), time(s.median_ms),
                    time(s.min_ms), time(s.p90_ms)});
    report_.add(name, s);
  }

  void print() const { table_.print(std::cout); }

 private:
  static std::string time(double ms) {
    return ms < 1.0 ? util::fmt("%.2f us", ms * 1e3)
                    : util::fmt("%.3f ms", ms);
  }

  util::Table table_;
  bench::BenchReporter report_;
};

}  // namespace

int main() {
  bench::header("Pipeline-stage micro benches", "paper Table 2");
  MicroBench mb;

  for (int layers : {4, 16, 48}) {
    const Graph& g = t5_graph(layers);
    mb.run("lowering_t5_" + std::to_string(layers) + "l",
           [&] { return ir::lower(g); });
  }
  for (int layers : {4, 16, 48}) {
    const ir::TapGraph& tg = t5_ir(layers);
    mb.run("pruning_t5_" + std::to_string(layers) + "l",
           [&] { return pruning::prune_graph(tg); });
  }
  for (int layers : {4, 16, 48}) {
    // The per-candidate evaluation: must be independent of model depth.
    const ir::TapGraph& tg = t5_ir(layers);
    pruning::PruneResult pr = pruning::prune_graph(tg);
    const pruning::SubgraphFamily* block = nullptr;
    for (const auto& f : pr.families)
      if (f.representative.find("encoder/block_0") != std::string::npos)
        block = &f;
    const sharding::PatternTable table(tg, 8);
    const sharding::ShardingPlan plan = sharding::default_plan(tg, 8);
    mb.run("route_subgraph_t5_" + std::to_string(layers) + "l", [&] {
      return sharding::route_subgraph(tg, plan, block->member_nodes,
                                      sharding::ShardSpec::replicate(),
                                      &table);
    });
  }
  for (int layers : {4, 16, 48}) {
    const ir::TapGraph& tg = t5_ir(layers);
    const sharding::PatternTable table(tg, 8);
    const sharding::ShardingPlan plan = sharding::default_plan(tg, 8);
    mb.run("route_full_graph_t5_" + std::to_string(layers) + "l",
           [&] { return sharding::route_plan(tg, plan, &table); });
  }
  {
    const ir::TapGraph& tg = t5_ir(8);
    const auto routed =
        sharding::route_plan(tg, sharding::default_plan(tg, 8));
    const cost::ClusterSpec cluster;
    const double window =
        cost::backward_compute_window(tg, routed, nullptr, cluster);
    mb.run("comm_cost_t5_8l",
           [&] { return cost::comm_cost(routed, cluster, window); });
  }
  for (int layers : {4, 16}) {
    const ir::TapGraph& tg = t5_ir(layers);
    core::TapOptions opts;
    opts.num_shards = 8;
    mb.run("auto_parallel_t5_" + std::to_string(layers) + "l",
           [&] { return core::auto_parallel(tg, opts); });
  }
  {
    const ir::TapGraph& tg = t5_ir(8);
    const auto routed =
        sharding::route_plan(tg, sharding::default_plan(tg, 16));
    const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
    mb.run("simulate_step_t5_8l", [&] {
      return sim::simulate_step(tg, routed, routed.num_shards, cluster);
    });
  }
  {
    const Graph& g = t5_graph(8);
    const ir::TapGraph& tg = t5_ir(8);
    const auto routed =
        sharding::route_plan(tg, sharding::default_plan(tg, 8));
    mb.run("rewrite_graph_t5_8l",
           [&] { return rewrite::rewrite_graph(g, tg, routed); });
  }
  {
    models::TransformerConfig cfg = models::t5_with_layers(1);
    cfg.name = "bench_tiny";
    cfg.encoder_decoder = false;
    cfg.d_model = 32;
    cfg.d_ff = 64;
    cfg.num_heads = 2;
    cfg.vocab = 64;
    cfg.batch = 2;
    cfg.seq_len = 16;
    const Graph g = models::build_transformer(cfg);
    runtime::GradientExecutor exec(g);
    const auto feeds = exec.make_feeds();
    mb.run("autodiff_tiny_transformer",
           [&] { return exec.gradients(feeds); });
  }
  mb.print();
  return 0;
}
