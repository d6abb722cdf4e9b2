// PlannerService plan-cache bench: cold search vs warm memory-tier hit vs
// warm disk-tier hit vs N concurrent duplicate requests (single-flight),
// on the T5 / MoE / ResNet workloads.
//
// The gate is on the hit's own work, not on the search it skips: warm,
// disk and duplicate requests must return the cold search's response
// bytes, hits must run no search, and a warm memory hit (median of
// repeat_ms runs) may cost at most kHitBar times the steps a hit is
// documented to run — key, prune, pattern table and route — timed the
// same way in the same process. Warm-over-cold speedup is reported, not
// gated: it divides by the search, which other changes make faster.
// The exit code enforces the gate (CI's bench-smoke job fails on a
// regression), and the figures land in BENCH_plan_cache.json when
// TAP_BENCH_JSON is set.
//
// The hit path's serialization is reported, not gated: the medians of
// plan_response_json (every /plan response) and disk_file_from_json
// (every disk hit reads its file back through plan_response_from_json)
// for T5-4L/24L/48L at a 2x8 mesh.
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "pruning/prune.h"
#include "service/fingerprint.h"
#include "service/planner_service.h"
#include "service/wire.h"
#include "sharding/pattern.h"
#include "sharding/routing.h"
#include "util/stopwatch.h"

namespace {

// A Workload owns its Graph and a TapGraph lowered from it, so it must be
// constructed in place (never moved); each case carries a builder instead.
struct CacheCase {
  std::string label;
  std::function<tap::Graph()> build;
};

}  // namespace

/// A warm hit may cost at most this many times its documented steps.
constexpr double kHitBar = 2.0;
/// Timed runs per repeat_ms figure.
constexpr int kRuns = 15;

int main() {
  using namespace tap;
  namespace fs = std::filesystem;
  bench::header("PlannerService plan cache — cold vs warm vs coalesced",
                "service subsystem");

  const std::vector<CacheCase> cases = {
      {"T5 (8+8 layers)",
       [] {
         return models::build_transformer(models::t5_with_layers(8));
       }},
      {"WideNet MoE (4 layers)",
       [] {
         models::MoeConfig cfg = models::widenet();
         cfg.num_layers = 4;
         return models::build_moe_transformer(cfg);
       }},
      {"ResNet-50",
       [] { return models::build_resnet(models::resnet50(1024)); }},
  };

  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  opts.threads = 1;

  const std::string disk_dir =
      (fs::temp_directory_path() / "tap_bench_plan_cache").string();
  fs::remove_all(disk_dir);

  util::Table table({"model", "cold ms", "warm ms", "steps ms", "hit/steps",
                     "disk ms", "8x dup ms", "warm/cold", "searches"});
  bench::BenchReporter report("plan_cache");
  std::vector<std::string> failures;

  for (const CacheCase& c : cases) {
    bench::Workload workload(c.build());
    const ir::TapGraph& tg = workload.tg;
    service::ServiceOptions sopts;
    sopts.cache.disk_dir = disk_dir;
    sopts.request_threads = 1;
    service::PlannerService svc(sopts);
    const service::PlanRequest req{&tg, opts, false};
    const service::PlanKey key = svc.key_for(req);
    auto bytes = [&](const core::TapResult& r) {
      return service::plan_response_json(tg, key, r);
    };

    util::Stopwatch sw;
    const std::string cold = bytes(svc.plan(req));
    const double cold_s = sw.elapsed_seconds();

    // Memory-tier hits, then the steps a hit runs, timed the same way.
    core::TapResult hit;
    const bench::RepeatStats warm_ms =
        bench::repeat_ms(kRuns, [&] { hit = svc.plan(req); });
    const std::string warm = bytes(hit);
    const std::uint64_t searches = svc.stats().searches;
    const sharding::ShardingPlan& plan = hit.best_plan;
    bool steps_routed = true;
    const bench::RepeatStats steps_ms = bench::repeat_ms(kRuns, [&] {
      service::make_plan_key(tg, opts, false);
      pruning::prune_graph(tg, opts.prune);
      const sharding::PatternTable patterns(tg, plan.num_shards,
                                            plan.dp_replicas);
      steps_routed &= sharding::route_plan(tg, plan, &patterns).valid;
    });
    const double hit_over_steps = warm_ms.median_ms / steps_ms.median_ms;

    // Fresh service over the same directory: disk tier only.
    service::PlannerService svc_disk(sopts);
    sw.restart();
    const std::string disk = bytes(svc_disk.plan(req));
    const double disk_s = sw.elapsed_seconds();

    // 8 concurrent duplicates against an empty cache: single-flight means
    // ~one cold search amortized over all of them.
    service::ServiceOptions mem_opts;
    mem_opts.request_threads = 2;
    service::PlannerService svc_dup(mem_opts);
    std::vector<std::string> dup(8);
    sw.restart();
    {
      std::vector<std::thread> clients;
      for (int i = 0; i < 8; ++i)
        clients.emplace_back([&, i] { dup[i] = bytes(svc_dup.plan(req)); });
      for (std::thread& t : clients) t.join();
    }
    const double dup_s = sw.elapsed_seconds();

    const double warm_over_cold = warm_ms.median_ms / (cold_s * 1e3);
    table.add_row({c.label, bench::ms(cold_s),
                   util::fmt("%.3f", warm_ms.median_ms),
                   util::fmt("%.3f", steps_ms.median_ms),
                   util::fmt("%.2fx", hit_over_steps), bench::ms(disk_s),
                   bench::ms(dup_s), util::fmt("%.3f", warm_over_cold),
                   std::to_string(svc_dup.stats().searches)});

    auto check = [&](bool ok, const std::string& what) {
      if (!ok) failures.push_back(c.label + ": " + what);
    };
    check(warm == cold, "warm hit bytes differ from the cold search");
    check(disk == cold, "disk hit bytes differ from the cold search");
    for (const std::string& d : dup)
      check(d == cold, "a duplicate's bytes differ from the cold search");
    check(searches == 1, "memory hits ran a search");
    check(svc_disk.stats().searches == 0, "the disk hit ran a search");
    check(svc_dup.stats().searches == 1, "duplicates ran more than one search");
    check(steps_routed, "the stored plan does not route");
    check(hit_over_steps <= kHitBar, "a warm hit costs over the bar");

    const std::string slug =
        c.label.rfind("T5", 0) == 0      ? "t5"
        : c.label.rfind("Wide", 0) == 0  ? "moe"
                                         : "resnet50";
    report.add(slug + ".cold_ms", cold_s * 1e3);
    report.add(slug + ".warm", warm_ms);
    report.add(slug + ".hit_steps", steps_ms);
    report.add(slug + ".hit_over_steps", hit_over_steps);
    report.add(slug + ".disk_ms", disk_s * 1e3);
    report.add(slug + ".dup8_ms", dup_s * 1e3);
    report.add(slug + ".warm_over_cold", warm_over_cold);
    report.add(slug + ".searches",
               static_cast<double>(svc_dup.stats().searches));
  }
  table.print(std::cout);

  // Serialization on the hit path, at the depths plan_cold plans.
  util::Table ser({"model", "nodes", "response ms", "disk parse ms"});
  for (const int layers : {4, 24, 48}) {
    service::ModelSpec spec;
    spec.layers = layers;
    spec.dp = 2;
    spec.tp = 8;
    bench::Workload workload(service::build_spec_model(spec));
    const ir::TapGraph& tg = workload.tg;
    const core::TapOptions sopts = service::options_for_spec(spec, 1);
    const core::TapResult r = core::auto_parallel(tg, sopts);
    const service::PlanKey key = service::make_plan_key(tg, sopts, false);
    const std::string file = service::disk_file_json(tg, key, r);
    auto respond = [&] { service::plan_response_json(tg, key, r); };
    auto parse = [&] { service::disk_file_from_json(tg, key, file); };
    const bench::RepeatStats response_ms = bench::repeat_ms(kRuns, respond);
    const bench::RepeatStats record_ms = bench::repeat_ms(kRuns, parse);
    ser.add_row({"T5-" + std::to_string(layers) + "L",
                 std::to_string(tg.num_nodes()),
                 util::fmt("%.3f", response_ms.median_ms),
                 util::fmt("%.3f", record_ms.median_ms)});
    const std::string slug = "t5_" + std::to_string(layers) + "l";
    report.add(slug + ".response_json", response_ms);
    report.add(slug + ".record_from_json", record_ms);
  }
  std::cout << "\nHit-path serialization at 2x8 (reported, not gated):\n";
  ser.print(std::cout);
  report.add("hit_over_steps_bar", kHitBar);
  report.note("gate",
              "exit 1 unless warm, disk and duplicate bytes equal the cold "
              "search's, hits run no search, and each warm hit costs at "
              "most hit_over_steps_bar x its key+prune+table+route steps");

  std::cout << "\nA warm hit skips the family search and pays only "
               "key + prune + pattern table + route (the steps column); 8 "
               "duplicates coalesce into the single search shown in the "
               "last column.\n";
  for (const std::string& f : failures) std::cout << "FAIL: " << f << "\n";
  fs::remove_all(disk_dir);
  return failures.empty() ? 0 : 1;
}
