// report::PlanReport — plan explainability tests: the cost ledger must
// reproduce the scalar plan cost entry by entry, the critical-path
// classification must tile the simulated makespan exactly, report JSON
// must round-trip byte-for-byte and be thread-count-invariant, and the
// PlannerService must cache reports alongside plans.
#include "report/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "baselines/expert_plans.h"
#include "core/serialize.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "service/planner_service.h"
#include "util/json.h"

namespace tap::report {
namespace {

struct Planned {
  Graph g;
  ir::TapGraph tg;
  core::TapOptions opts;
  core::TapResult result;
};

Planned plan_t5(int layers, int num_shards) {
  Planned p{models::build_transformer(models::t5_with_layers(layers)),
            {}, {}, {}};
  p.tg = ir::lower(p.g);
  p.opts.num_shards = num_shards;
  p.opts.threads = 1;
  p.result = core::auto_parallel(p.tg, p.opts);
  return p;
}

TEST(CommLedger, ReproducesPlanCost) {
  Planned p = plan_t5(2, 8);
  cost::CommLedger ledger;
  const double window = cost::backward_compute_window(
      p.tg, p.result.routed, nullptr, p.opts.cluster);
  cost::PlanCost c =
      cost::comm_cost(p.result.routed, p.opts.cluster, window, &ledger);
  ASSERT_FALSE(ledger.entries.empty());
  // Entry-wise attribution sums back to the scalar result.
  EXPECT_NEAR(ledger.exposed_seconds(), c.total(),
              c.total() * 1e-9 + 1e-15);
  EXPECT_EQ(ledger.total_bytes(), c.comm_bytes);
  EXPECT_GE(ledger.busy_seconds(), ledger.exposed_seconds());
  for (const auto& e : ledger.entries) {
    EXPECT_NE(e.node, ir::kInvalidGraphNode);
    EXPECT_GE(e.seconds, e.exposed_seconds);
    EXPECT_GE(e.exposed_seconds, 0.0);
  }
  // The ledger is observational: passing one must not change the result.
  cost::PlanCost bare =
      cost::comm_cost(p.result.routed, p.opts.cluster, window);
  EXPECT_DOUBLE_EQ(bare.total(), c.total());
  EXPECT_DOUBLE_EQ(bare.backward_comm_s, c.backward_comm_s);
}

TEST(PlanReport, CostMatchesPlannerAndContributorsCover) {
  Planned p = plan_t5(2, 8);
  PlanReport r = build_report(p.tg, p.result, p.opts);
  // The report re-runs FinalizeCost's exact recipe.
  EXPECT_DOUBLE_EQ(r.cost.total(), p.result.cost.total());
  EXPECT_EQ(r.cost.comm_bytes, p.result.cost.comm_bytes);
  ASSERT_FALSE(r.contributors.empty());
  EXPECT_GT(r.contributor_scopes, 0);
  // Contributor totals cover the whole ledger (the "(other)" rollup keeps
  // the tail).
  std::int64_t bytes = 0;
  double exposed = 0.0;
  for (const auto& c : r.contributors) {
    bytes += c.bytes;
    exposed += c.exposed_seconds;
  }
  EXPECT_EQ(bytes, r.cost.comm_bytes);
  EXPECT_NEAR(exposed, r.cost.total(), r.cost.total() * 1e-9 + 1e-15);
  EXPECT_GE(r.exposed_fraction, 0.0);
  EXPECT_LE(r.exposed_fraction, 1.0);
  EXPECT_EQ(r.model, p.g.name());
}

TEST(PlanReport, TopKRollsUpIntoOther) {
  Planned p = plan_t5(2, 8);
  ReportOptions ropts;
  ropts.top_k = 1;
  PlanReport r = build_report(p.tg, p.result, p.opts, ropts);
  if (r.contributor_scopes > 1) {
    ASSERT_EQ(r.contributors.size(), 2u);
    EXPECT_EQ(r.contributors.back().scope, "(other)");
  }
}

TEST(PlanReport, CriticalPathTilesTheMakespan) {
  Planned p = plan_t5(2, 8);
  PlanReport r = build_report(p.tg, p.result, p.opts);
  const CriticalPath& cp = r.critical_path;
  EXPECT_DOUBLE_EQ(cp.makespan_s, r.step.iteration_s);
  // compute + exposed comm + bubble account for every instant.
  EXPECT_NEAR(cp.compute_s + cp.exposed_comm_s + cp.bubble_s, cp.makespan_s,
              1e-6);
  ASSERT_FALSE(cp.intervals.empty());
  EXPECT_DOUBLE_EQ(cp.intervals.front().start_s, 0.0);
  EXPECT_DOUBLE_EQ(cp.intervals.back().end_s, cp.makespan_s);
  for (std::size_t i = 0; i < cp.intervals.size(); ++i) {
    EXPECT_LT(cp.intervals[i].start_s, cp.intervals[i].end_s);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(cp.intervals[i].start_s, cp.intervals[i - 1].end_s)
          << "intervals must be contiguous";
      EXPECT_TRUE(cp.intervals[i].kind != cp.intervals[i - 1].kind)
          << "adjacent intervals of one kind must merge";
    }
  }
  // The dependency chain ends at the makespan and is time-ordered.
  ASSERT_FALSE(cp.steps.empty());
  EXPECT_NEAR(cp.steps.back().start_s + cp.steps.back().duration_s,
              cp.makespan_s, cp.makespan_s * 1e-9);
  for (std::size_t i = 1; i < cp.steps.size(); ++i)
    EXPECT_GE(cp.steps[i].start_s + 1e-15, cp.steps[i - 1].start_s);
  // The simulated step always does compute, so the path classifies some.
  EXPECT_GT(cp.compute_s, 0.0);
}

TEST(PlanReport, PruningAttribution) {
  Planned p = plan_t5(4, 8);
  PlanReport r = build_report(p.tg, p.result, p.opts);
  EXPECT_GT(r.pruning.families, 0);
  // 4 encoder + 4 decoder blocks fold.
  EXPECT_GE(r.pruning.folded_families, 1);
  EXPECT_GT(r.pruning.duplicate_instances, 0);
  EXPECT_GT(r.pruning.plans_with_pruning, 0);
  EXPECT_GE(r.pruning.plans_without_pruning, r.pruning.plans_with_pruning);
  EXPECT_GE(r.pruning.search_space_reduction, 1.0);
}

TEST(PlanReport, JsonRoundTripsByteForByte) {
  Planned p = plan_t5(2, 8);
  PlanReport r = build_report(p.tg, p.result, p.opts);
  auto theirs = baselines::megatron_plan(p.tg, 8);
  attach_baseline_diff(&r, p.tg, p.result, theirs, "Megatron", p.opts);
  const std::string json = to_json(r);
  EXPECT_EQ(to_json(from_json(json)), json);
  // The deterministic document never carries wall-clock fields.
  EXPECT_EQ(json.find("search_seconds"), std::string::npos);
  EXPECT_EQ(json.find("latency"), std::string::npos);
}

TEST(PlanReport, ByteIdenticalAtAnyThreadCount) {
  Graph g = models::build_transformer(models::t5_with_layers(2));
  ir::TapGraph tg = ir::lower(g);
  ReportOptions ropts;
  ropts.latency_section = false;

  core::TapOptions o1;
  o1.threads = 1;
  core::TapResult r1 = core::auto_parallel_best_mesh(tg, o1);
  core::TapOptions o4;
  o4.threads = 4;
  core::TapResult r4 = core::auto_parallel_best_mesh(tg, o4);

  EXPECT_EQ(to_json(build_report(tg, r1, o1, ropts)),
            to_json(build_report(tg, r4, o4, ropts)));
}

TEST(PlanReport, LoadedPlanReportsWhatItsSearchDid) {
  // A plan read back from its JSON document carries no search state, so
  // the family sections must come from (graph, options) alone: the same
  // contributors and pruning attribution as the search that made it.
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.threads = 1;
  ReportOptions ropts;
  ropts.latency_section = false;
  const std::pair<const char*, Graph> zoo[] = {
      {"T5-8L", models::build_transformer(models::t5_with_layers(8))},
      {"ResNet-50", models::build_resnet(models::resnet50())},
      {"WideNet", models::build_moe_transformer(models::widenet())},
  };
  for (const auto& [name, g] : zoo) {
    SCOPED_TRACE(name);
    const ir::TapGraph tg = ir::lower(g);
    const core::TapResult searched = core::auto_parallel_best_mesh(tg, opts);
    core::TapResult loaded;
    loaded.best_plan = core::plan_from_json(
        tg, core::plan_to_json(tg, searched.best_plan));
    loaded.routed = sharding::route_plan(tg, loaded.best_plan);
    ASSERT_TRUE(loaded.routed.valid) << loaded.routed.error;
    const util::JsonValue want = util::JsonValue::parse(
        to_json(build_report(tg, searched, opts, ropts)));
    const util::JsonValue got = util::JsonValue::parse(
        to_json(build_report(tg, loaded, opts, ropts)));
    EXPECT_GT(want.at("pruning").at("families").as_int(), 0);
    for (const char* section :
         {"contributors", "contributor_scopes", "pruning"})
      EXPECT_EQ(got.at(section).dump(), want.at(section).dump()) << section;
  }
}

TEST(PlanReport, DiffAgainstMegatron) {
  Planned p = plan_t5(2, 8);
  PlanReport r = build_report(p.tg, p.result, p.opts);
  auto theirs = baselines::megatron_plan(p.tg, 8);
  attach_baseline_diff(&r, p.tg, p.result, theirs, "Megatron", p.opts);
  ASSERT_TRUE(r.diff.has_value());
  EXPECT_EQ(r.diff->baseline, "Megatron");
  EXPECT_EQ(r.diff->mesh_ours, "1x8");
  EXPECT_EQ(r.diff->mesh_theirs, "1x8");
  EXPECT_GT(r.diff->total_theirs_s, 0.0);
  ASSERT_FALSE(r.diff->entries.empty());
  for (const auto& e : r.diff->entries) {
    EXPECT_FALSE(e.scope.empty());
    EXPECT_FALSE(e.pattern_ours.empty());
    EXPECT_FALSE(e.pattern_theirs.empty());
    EXPECT_EQ(e.differs, e.pattern_ours != e.pattern_theirs);
  }
  const std::string text = to_text(r);
  EXPECT_NE(text.find("Diff vs Megatron"), std::string::npos);
}

TEST(PlanReport, TextRenderingHasAllSections) {
  Planned p = plan_t5(2, 8);
  PlanReport r = build_report(p.tg, p.result, p.opts);
  const std::string text = to_text(r);
  EXPECT_NE(text.find("Plan report"), std::string::npos);
  EXPECT_NE(text.find("Top communication contributors"), std::string::npos);
  EXPECT_NE(text.find("Critical path"), std::string::npos);
  EXPECT_NE(text.find("Pruning"), std::string::npos);
}

TEST(PlannerService, ExplainCachesReports) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts;
  opts.num_shards = 4;
  opts.threads = 1;

  service::ServiceOptions sopts;
  sopts.request_threads = 1;
  service::PlannerService svc(sopts);
  auto first = svc.explain({&tg, opts, false});
  auto second = svc.explain({&tg, opts, false});
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get())
      << "a repeated explain returns the cached report instance";
  const auto stats = svc.stats();
  EXPECT_EQ(stats.report_builds, 1u);
  EXPECT_EQ(stats.report_hits, 1u);
  EXPECT_FALSE(first->contributors.empty());
}

TEST(PlannerService, ExplainKeepsAtMostCacheCapacityReports) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  auto request = [&](int num_shards) {
    core::TapOptions opts;
    opts.num_shards = num_shards;
    opts.threads = 1;
    return service::PlanRequest{&tg, opts, false};
  };

  service::ServiceOptions sopts;
  sopts.request_threads = 1;
  sopts.cache.capacity = 2;
  service::PlannerService svc(sopts);
  auto first = svc.explain(request(1));
  auto second = svc.explain(request(2));
  EXPECT_EQ(svc.explain(request(2)).get(), second.get())
      << "a repeat within capacity returns the cached report instance";
  svc.explain(request(4));  // the third key drops the least recent report
  EXPECT_EQ(svc.stats().report_builds, 3u);
  auto again = svc.explain(request(1));
  EXPECT_EQ(report::to_json(*again), report::to_json(*first));
  const auto stats = svc.stats();
  EXPECT_EQ(stats.report_builds, 4u) << "the first key's report was dropped";
  EXPECT_EQ(stats.report_hits, 1u);
}

}  // namespace
}  // namespace tap::report
