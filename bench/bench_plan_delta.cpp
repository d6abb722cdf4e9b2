// Incremental replanning bench: an edited model planned by a service whose
// family cache the base model already warmed, vs a cold service, on the
// canonical fleet edit — one extra block on an already-planned model.
// Every family the edit shares with the base is answered from the
// family-outcome cache by fingerprint, so the warm replan pays
// fingerprints + prune + route instead of the family searches.
//
// The gate is on the work the family cache exists to skip, enforced by
// the exit code (CI's bench-smoke job fails on a regression): the warm
// T5 one-block replan must miss the family cache for no family and take
// no family-search DP step (planner.family.dp_steps does not move). The
// bench also re-verifies the differential contract end to end: the warm
// plan must serialize byte-identically to the cold plan, and each edited
// request must hit the family cache at least once. Cold and warm times
// and their ratio are reported, not gated: a cold search is itself a
// few milliseconds, so the ratio says little about the cache.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/serialize.h"
#include "obs/metrics.h"
#include "service/planner_service.h"
#include "util/stopwatch.h"

namespace {

struct DeltaCase {
  std::string label;
  std::string slug;
  std::function<tap::Graph()> base;
  std::function<tap::Graph()> edited;
};

}  // namespace

int main() {
  using namespace tap;
  bench::header("Incremental replanning — warmed family cache vs cold",
                "service subsystem");

  const std::vector<DeltaCase> cases = {
      {"T5 8->9 layers", "t5",
       [] {
         return models::build_transformer(models::t5_with_layers(8));
       },
       [] {
         return models::build_transformer(models::t5_with_layers(9));
       }},
      {"WideNet MoE 4->5 layers", "moe",
       [] {
         models::MoeConfig cfg = models::widenet();
         cfg.num_layers = 4;
         return models::build_moe_transformer(cfg);
       },
       [] {
         models::MoeConfig cfg = models::widenet();
         cfg.num_layers = 5;
         return models::build_moe_transformer(cfg);
       }},
  };

  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  opts.threads = 1;

  constexpr int kIters = 3;  // best-of-N against scheduler noise
  util::Table table({"edit", "cold ms", "warm ms", "speedup", "family hits",
                     "family misses", "DP steps"});
  bench::BenchReporter report("plan_delta");
  obs::Counter* dp_steps = obs::registry().counter("planner.family.dp_steps");
  bool ok = true;

  for (const DeltaCase& c : cases) {
    bench::Workload base(c.base());
    bench::Workload edited(c.edited());
    const service::PlanRequest base_req{&base.tg, opts, false};
    const service::PlanRequest edited_req{&edited.tg, opts, false};

    double cold_s = 0.0, warm_s = 0.0;
    // The warm replan's family-cache hits and misses and DP steps; misses
    // and steps are the largest over the iterations.
    std::uint64_t family_hits = 0, family_misses = 0, warm_steps = 0;
    core::TapResult cold_result, warm_result;
    util::Stopwatch sw;
    for (int i = 0; i < kIters; ++i) {
      // Cold: a fresh service with empty plan and family caches.
      service::ServiceOptions cold_opts;
      cold_opts.request_threads = 1;
      service::PlannerService cold_svc(cold_opts);
      sw.restart();
      cold_result = cold_svc.plan(edited_req);
      cold_s = i == 0 ? sw.elapsed_seconds()
                      : std::min(cold_s, sw.elapsed_seconds());

      // Warm: the service already planned the base model; the edited
      // request misses the exact cache and its shared families hit the
      // family cache.
      service::ServiceOptions warm_opts;
      warm_opts.request_threads = 1;
      service::PlannerService warm_svc(warm_opts);
      warm_svc.plan(base_req);
      const service::ServiceStats before = warm_svc.stats();
      const std::uint64_t steps_before = dp_steps->value();
      sw.restart();
      warm_result = warm_svc.plan(edited_req);
      warm_s = i == 0 ? sw.elapsed_seconds()
                      : std::min(warm_s, sw.elapsed_seconds());
      const service::ServiceStats after = warm_svc.stats();
      family_hits = after.family_hits - before.family_hits;
      family_misses = std::max(family_misses,
                               after.family_misses - before.family_misses);
      warm_steps = std::max(warm_steps, dp_steps->value() - steps_before);
    }

    // The warm path must actually reuse family outcomes and must be
    // byte-identical to the cold search.
    if (family_hits == 0) {
      std::cout << "ERROR: " << c.label
                << " warm replan hit no cached family outcome\n";
      ok = false;
    }
    // The one-block T5 edit shares every family with the base model, so
    // its warm replan searches none.
    if (c.slug == "t5" && (family_misses != 0 || warm_steps != 0)) {
      std::cout << "ERROR: " << c.label << " warm replan missed "
                << family_misses << " families and took " << warm_steps
                << " DP steps; it should search none\n";
      ok = false;
    }
    if (core::plan_to_json(edited.tg, cold_result.best_plan) !=
            core::plan_to_json(edited.tg, warm_result.best_plan) ||
        cold_result.cost.comm_bytes != warm_result.cost.comm_bytes) {
      std::cout << "ERROR: " << c.label
                << " warm plan differs from the cold plan\n";
      ok = false;
    }

    const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
    table.add_row({c.label, bench::ms(cold_s), bench::ms(warm_s),
                   util::fmt("%.1fx", speedup), std::to_string(family_hits),
                   std::to_string(family_misses), std::to_string(warm_steps)});
    report.add(c.slug + ".cold_ms", cold_s * 1e3);
    report.add(c.slug + ".warm_ms", warm_s * 1e3);
    report.add(c.slug + ".speedup", speedup);
    report.add(c.slug + ".family_hits", static_cast<double>(family_hits));
    report.add(c.slug + ".family_misses", static_cast<double>(family_misses));
    report.add(c.slug + ".warm_dp_steps", static_cast<double>(warm_steps));
  }
  table.print(std::cout);
  report.note("gate",
              "exit 1 when the warm T5 replan misses a family or takes a "
              "DP step, a warm replan hits no family, or warm != cold "
              "byte-for-byte");

  std::cout << "\nThe family cache answers every family the base model "
               "shares and searches only the delta; the one-block T5 edit "
               "shares everything, so its replan pays fingerprints + "
               "prune + route and no family search.\n";
  return ok ? 0 : 1;
}
