// Shared helpers for the paper-reproduction bench binaries. Each bench is
// a standalone no-argument executable that prints the rows/series of one
// table or figure from the paper (see DESIGN.md §3 for the index).
//
// When the TAP_BENCH_JSON environment variable names a directory, a
// BenchReporter additionally writes a machine-readable BENCH_<name>.json
// record there — the bench's key figures plus a full obs::dump_json()
// metrics snapshot — which CI's bench-smoke job uploads as artifacts and
// gates regressions on.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/alpa_like.h"
#include "baselines/expert_plans.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace tap::bench {

struct Workload {
  Graph graph;
  ir::TapGraph tg;

  explicit Workload(Graph g) : graph(std::move(g)), tg(ir::lower(graph)) {}
};

inline Workload t5_workload(int layers, std::int64_t batch = 16) {
  models::TransformerConfig cfg = models::t5_with_layers(layers);
  cfg.batch = batch;
  return Workload(models::build_transformer(cfg));
}

inline Workload resnet_workload(std::int64_t classes,
                                std::int64_t batch = 1024) {
  models::ResNetConfig cfg = models::resnet50(classes);
  cfg.batch = batch;
  return Workload(models::build_resnet(cfg));
}

/// Simulated iteration time of a named expert plan ("DP"/"Megatron"/
/// "MHA"/"FFN") on `cluster`.
inline sim::StepBreakdown simulate_expert(const Workload& w,
                                          const std::string& plan_name,
                                          const cost::ClusterSpec& cluster,
                                          const sim::SimOptions& opts = {}) {
  auto plan =
      baselines::named_expert_plan(plan_name, w.tg, cluster.world());
  auto routed = sharding::route_plan(w.tg, plan);
  return sim::simulate_step(w.tg, routed, cluster.world(), cluster, opts);
}

/// Simulated iteration time of one Alpa-like candidate: the intra-op plan
/// runs on a tensor-parallel group of world/stages devices; the pipeline
/// adds the (stages-1)/M bubble over M=8 microbatches.
inline double simulate_alpa_plan(const ir::TapGraph& op_tg,
                                 const sharding::ShardingPlan& plan,
                                 int stages,
                                 const cost::ClusterSpec& cluster) {
  auto routed = sharding::route_plan(op_tg, plan);
  if (!routed.valid) return 0.0;
  sim::StepBreakdown b =
      sim::simulate_step(op_tg, routed, plan.num_shards, cluster);
  constexpr double kMicrobatches = 8.0;
  return b.iteration_s * (1.0 + (stages - 1) / kMicrobatches);
}

/// min/mean/max simulated iteration time over every candidate the
/// Alpa-like search evaluated (the paper's blue variance band), plus the
/// time of the plan it actually selected.
struct AlpaBand {
  double best = 0.0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

inline AlpaBand simulate_alpa_band(const Graph& g,
                                   const baselines::BaselineSearchResult& r,
                                   const cost::ClusterSpec& cluster) {
  AlpaBand band;
  if (!r.found) return band;
  ir::LoweringOptions lop;
  lop.cluster_by_scope = false;
  ir::TapGraph op_tg = ir::lower(g, lop);
  band.best = simulate_alpa_plan(op_tg, r.best_plan, r.best_stages, cluster);
  band.min = core::kInvalidPlanCost;
  int n = 0;
  for (const auto& cand : r.evaluated) {
    double t = simulate_alpa_plan(op_tg, cand.plan, cand.stages, cluster);
    if (t <= 0.0) continue;
    band.min = std::min(band.min, t);
    band.max = std::max(band.max, t);
    band.mean += t;
    ++n;
  }
  if (n > 0) band.mean /= n;
  return band;
}

inline std::string ms(double seconds) {
  return util::fmt("%.1f", seconds * 1e3);
}

/// Wall-time summary of repeated runs of one call, in ms.
struct RepeatStats {
  int runs = 0;
  double min_ms = 0.0;
  double median_ms = 0.0;
  double p90_ms = 0.0;  ///< nearest rank
};

/// Runs `fn` once to warm up, then `runs` timed times, and summarizes
/// the timed runs; `setup` runs untimed before every run of `fn`. One run
/// of a shared host can be off by several times; a median of several is
/// the figure to compare.
template <typename Setup, typename Fn>
RepeatStats repeat_ms(int runs, Setup&& setup, Fn&& fn) {
  setup();
  fn();
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(std::max(1, runs)));
  for (int i = 0; i < std::max(1, runs); ++i) {
    setup();
    util::Stopwatch sw;
    fn();
    t.push_back(sw.elapsed_seconds() * 1e3);
  }
  std::sort(t.begin(), t.end());
  RepeatStats s;
  s.runs = static_cast<int>(t.size());
  s.min_ms = t.front();
  s.median_ms = t.size() % 2 == 1
                    ? t[t.size() / 2]
                    : 0.5 * (t[t.size() / 2 - 1] + t[t.size() / 2]);
  s.p90_ms = t[(t.size() * 9 + 9) / 10 - 1];
  return s;
}

template <typename Fn>
RepeatStats repeat_ms(int runs, Fn&& fn) {
  return repeat_ms(runs, [] {}, fn);
}

inline void header(const std::string& what, const std::string& paper_ref) {
  std::cout << "=== " << what << " (" << paper_ref << ") ===\n";
}

/// Machine-readable bench record. Collects named figures (doubles) and
/// notes (strings); write() emits
///   $TAP_BENCH_JSON/BENCH_<name>.json =
///   {"bench":..,"figures":{..},"notes":{..},"metrics":<obs::dump_json>}
/// and is a silent no-op when TAP_BENCH_JSON is unset, so interactive
/// runs behave exactly as before.
class BenchReporter {
 public:
  explicit BenchReporter(std::string name) : name_(std::move(name)) {}
  ~BenchReporter() { write(); }

  void add(const std::string& key, double value) {
    figures_.emplace_back(key, value);
  }
  /// `key`_min_ms, `key`_median_ms and `key`_p90_ms.
  void add(const std::string& key, const RepeatStats& s) {
    add(key + "_min_ms", s.min_ms);
    add(key + "_median_ms", s.median_ms);
    add(key + "_p90_ms", s.p90_ms);
  }
  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }

  /// Writes the record (once); returns the path written, or "".
  std::string write() {
    if (written_) return "";
    const char* dir = std::getenv("TAP_BENCH_JSON");
    if (dir == nullptr || *dir == '\0') return "";
    written_ = true;
    const std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::cerr << "BenchReporter: cannot write " << path << "\n";
      return "";
    }
    // Keys and notes are caller-supplied prose (model names, error
    // strings): escape everything interpolated into the document or one
    // quote/newline corrupts the whole record.
    out << "{\"bench\":\"" << util::json_escape(name_)
        << "\",\"figures\":{";
    for (std::size_t i = 0; i < figures_.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << util::json_escape(figures_[i].first)
          << "\":" << util::fmt("%.17g", figures_[i].second);
    }
    out << "},\"notes\":{";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << util::json_escape(notes_[i].first) << "\":\""
          << util::json_escape(notes_[i].second) << "\"";
    }
    out << "},\"metrics\":" << obs::dump_json() << "}\n";
    std::cout << "bench record written to " << path << "\n";
    return path;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> figures_;
  std::vector<std::pair<std::string, std::string>> notes_;
  bool written_ = false;
};

}  // namespace tap::bench
