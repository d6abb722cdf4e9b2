// Fig. 10: end-to-end search time scaling the ResNet-50 classification
// width (the e-commerce scenario of Fig. 3a). Alpa-like shortlisted to 5
// candidate plans per the paper. Paper: TAP is 103x-162x faster.
#include <cstdio>

#include "baselines/alpa_like.h"
#include "bench_common.h"

namespace {

/// Timed runs of each search per row (after one warm-up run).
constexpr int kRuns = 7;

}  // namespace

int main() {
  using namespace tap;
  bench::header("Fig. 10 — search time vs ResNet classifier width",
                "paper Fig. 10");
  bench::BenchReporter report("fig10_search_time_resnet");

  cost::ClusterSpec cluster = cost::ClusterSpec::v100_node();
  util::Table table({"classes", "params", "TAP ms", "TAP candidates",
                     "Alpa-like ms", "Alpa + profiling s", "speedup (wall)",
                     "speedup (e2e)"});
  for (std::int64_t classes : {1'000, 10'000, 50'000, 100'000}) {
    bench::Workload w = bench::resnet_workload(classes);

    core::TapOptions topts;
    topts.num_shards = 8;
    topts.cluster = cluster;
    core::TapResult tap;
    const bench::RepeatStats tap_t = bench::repeat_ms(
        kRuns, [&] { tap = core::auto_parallel(w.tg, topts); });

    baselines::AlpaOptions al;
    al.num_shards = 8;
    al.max_candidate_plans = 5;  // paper's shortlist for ResNet
    baselines::BaselineSearchResult alpa;
    const bench::RepeatStats alpa_t = bench::repeat_ms(kRuns, [&] {
      alpa = baselines::alpa_like_search(w.graph, cluster, al);
    });

    table.add_row(
        {std::to_string(classes),
         util::human_count(static_cast<double>(w.graph.total_params())),
         util::fmt("%.2f", tap_t.median_ms),
         std::to_string(tap.candidate_plans),
         util::fmt("%.1f", alpa_t.median_ms),
         util::fmt("%.1f", alpa_t.median_ms * 1e-3 +
                               alpa.simulated_profiling_seconds),
         util::fmt("%.0fx", alpa_t.median_ms / tap_t.median_ms),
         util::fmt("%.0fx", (alpa_t.median_ms * 1e-3 +
                             alpa.simulated_profiling_seconds) *
                                1e3 / tap_t.median_ms)});

    const std::string prefix = "classes_" + std::to_string(classes) + ".";
    report.add(prefix + "tap_ms", tap_t.median_ms);
    report.add(prefix + "tap", tap_t);
    report.add(prefix + "tap_candidates",
               static_cast<double>(tap.candidate_plans));
    report.add(prefix + "alpa_ms", alpa_t.median_ms);
    report.add(prefix + "alpa", alpa_t);
    report.add(prefix + "speedup_wall", alpa_t.median_ms / tap_t.median_ms);
  }
  table.print(std::cout);
  std::printf("(medians of %d runs after a warm-up)\n", kRuns);
  std::cout << "\nWidth scaling leaves the graph structure unchanged, so "
               "TAP's search time is flat; the Alpa-like baseline still "
               "pays per-op profiling + the V^2 stage DP (paper: two orders "
               "of magnitude).\n";
  return 0;
}
