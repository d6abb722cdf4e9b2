#include "core/planner_pipeline.h"

#include <algorithm>
#include <cctype>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace tap::core {

namespace {

using pruning::SubgraphFamily;
using sharding::ShardingPlan;

/// The context's full-graph backward-window terms, built on first use.
const cost::BackwardWindowTerms& full_graph_terms(PlanContext& ctx) {
  if (!ctx.window_terms.has_value()) {
    ctx.window_terms.emplace(ctx.graph(), nullptr, ctx.opts.num_shards,
                             ctx.plan.dp_replicas, ctx.opts.cluster);
  }
  return *ctx.window_terms;
}

/// Full-graph cost with the overlap window computed over the whole model.
cost::PlanCost global_cost(const sharding::RoutedPlan& routed,
                           const TapOptions& opts,
                           const sharding::PatternTable& table,
                           const cost::BackwardWindowTerms& terms) {
  cost::CostOptions copts = opts.cost;
  copts.overlap_window_s = terms.window(routed, table);
  return cost::comm_cost(routed, opts.num_shards, opts.cluster, copts);
}

bool family_is_weighted(const ir::TapGraph& tg, const SubgraphFamily& f) {
  for (ir::GraphNodeId id : f.member_nodes)
    if (tg.node(id).has_weight()) return true;
  return false;
}

/// "BuildPatternTable" -> "planner.pass.build_pattern_table_ms".
std::string pass_metric_name(const std::string& pass) {
  std::string out = "planner.pass.";
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const char c = pass[i];
    if (std::isupper(static_cast<unsigned char>(c))) {
      if (i > 0) out.push_back('_');
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back(c);
    }
  }
  out += "_ms";
  return out;
}

}  // namespace

std::size_t weighted_family_count(const ir::TapGraph& tg,
                                  const pruning::PruneResult& pruning) {
  std::size_t n = 0;
  for (const SubgraphFamily& f : pruning.families)
    if (family_is_weighted(tg, f)) ++n;
  return n;
}

PlannerPipeline& PlannerPipeline::add(std::unique_ptr<PlannerPass> pass) {
  TAP_CHECK(pass != nullptr);
  passes_.push_back(std::move(pass));
  return *this;
}

void PlannerPipeline::run_prefix(PlanContext& ctx, std::size_t n) const {
  TAP_CHECK_LE(n, passes_.size());
  (void)ctx.graph();  // fail early on an unbound context
  for (std::size_t i = 0; i < n; ++i) {
    const std::string name = passes_[i]->name();
    util::Stopwatch sw;
    {
      obs::ScopedSpan span(name, "planner.pass");
      // When this run serves a traced request (the PlannerService installs
      // the request's context on the worker thread), tag the pass span
      // with the trace id so one Chrome trace correlates
      // client -> shard -> pass.
      if (const obs::RequestContext* rc = obs::current_request_context();
          rc != nullptr && rc->sampled) {
        span.arg("trace", rc->trace_hex());
      }
      passes_[i]->run(ctx);
    }
    const double seconds = sw.elapsed_seconds();
    ctx.timings.push_back({name, seconds});
    obs::registry().histogram(pass_metric_name(name))->observe(seconds * 1e3);
  }
}

PlannerPipeline PlannerPipeline::standard(
    std::shared_ptr<const FamilySearchPolicy> policy) {
  if (policy == nullptr) policy = std::make_shared<AutoPolicy>();
  PlannerPipeline p;
  p.add(std::make_unique<BuildPatternTablePass>())
      .add(std::make_unique<PrunePass>())
      .add(std::make_unique<FamilySearchPass>(std::move(policy)))
      .add(std::make_unique<GlobalRefinePass>())
      .add(std::make_unique<FinalizeCostPass>());
  return p;
}

void BuildPatternTablePass::run(PlanContext& ctx) const {
  TAP_CHECK_GE(ctx.opts.num_shards, 1);
  TAP_CHECK_GE(ctx.opts.dp_replicas, 1);
  ctx.table.emplace(ctx.graph(), ctx.opts.num_shards, ctx.opts.dp_replicas);
}

void PrunePass::run(PlanContext& ctx) const {
  if (ctx.shared_pruning != nullptr) {
    ctx.pruning = *ctx.shared_pruning;
    return;
  }
  ctx.pruning = pruning::prune_graph(ctx.graph(), ctx.opts.prune);
}

void SingleFamilyPass::run(PlanContext& ctx) const {
  const ir::TapGraph& tg = ctx.graph();
  SubgraphFamily fam;
  fam.representative = "<whole-graph>";
  fam.instances = {fam.representative};
  fam.member_nodes.reserve(tg.num_nodes());
  fam.relnames.reserve(tg.num_nodes());
  for (const auto& n : tg.nodes()) {
    fam.member_nodes.push_back(n.id);
    fam.relnames.push_back(n.name);
    fam.params += n.params;
  }
  fam.instance_nodes = {fam.member_nodes};
  pruning::PruneResult pr;
  pr.fold_depth = 0;
  pr.total_graph_nodes = tg.num_nodes();
  pr.families.push_back(std::move(fam));
  ctx.pruning = std::move(pr);
}

FamilySearchPass::FamilySearchPass(
    std::shared_ptr<const FamilySearchPolicy> policy)
    : policy_(std::move(policy)) {
  TAP_CHECK(policy_ != nullptr);
}

void FamilySearchPass::run(PlanContext& ctx) const {
  const ir::TapGraph& tg = ctx.graph();
  TAP_CHECK(ctx.table.has_value())
      << "FamilySearch requires BuildPatternTable";
  ctx.plan =
      sharding::default_plan(tg, ctx.opts.num_shards, ctx.opts.dp_replicas);

  std::vector<const SubgraphFamily*> families;
  for (const SubgraphFamily& f : ctx.pruning.families) {
    if (family_is_weighted(tg, f)) families.push_back(&f);
    // Families with no weighted member have nothing to decide.
  }
  ctx.families_total += static_cast<std::int64_t>(families.size());
  if (families.empty()) return;

  FamilySearchContext fctx(tg, ctx.opts, *ctx.table);
  std::vector<FamilySearchOutcome> outcomes(families.size());
  // searched[i] records whether family i's checkpoint let it run; a
  // skipped family keeps its data-parallel default from default_plan —
  // the anytime degradation. The checkpoint ordinal is the stable family
  // index (plus the sweep's per-mesh base), so under a deterministic
  // checkpoint limit the searched set is identical at any thread count.
  std::vector<char> searched(families.size(), 0);
  util::ThreadPool pool(families.size() > 1 ? ctx.opts.threads : 1);
  pool.parallel_for(families.size(), [&](std::size_t i) {
    if (ctx.cancel.checkpoint(ctx.checkpoint_base + i)) return;
    TAP_FAULT_POINT("planner.family");
    TAP_SPAN(families[i]->representative, "planner.family");
    outcomes[i] = policy_->search(fctx, *families[i], ctx.plan);
    searched[i] = 1;
  });

  // Deterministic join: merge stats and replay winners in family order.
  SearchStats pass_stats;
  std::size_t num_searched = 0;
  for (std::size_t i = 0; i < families.size(); ++i) {
    if (!searched[i]) continue;
    ++num_searched;
    pass_stats.merge(outcomes[i].stats);
    if (outcomes[i].found) {
      sharding::apply_family_choice(*families[i], outcomes[i].choice,
                                    &ctx.plan);
    }
  }
  ctx.families_searched += static_cast<std::int64_t>(num_searched);
  if (num_searched < families.size()) ctx.cancelled = true;
  ctx.stats.merge(pass_stats);
  obs::MetricsRegistry& reg = obs::registry();
  reg.counter("planner.family.searched")->add(num_searched);
  reg.counter("planner.family.candidates")
      ->add(static_cast<std::uint64_t>(pass_stats.candidate_plans));
  reg.counter("planner.family.valid_plans")
      ->add(static_cast<std::uint64_t>(pass_stats.valid_plans));
}

void GlobalRefinePass::run(PlanContext& ctx) const {
  const ir::TapGraph& tg = ctx.graph();
  TAP_CHECK(ctx.table.has_value()) << "GlobalRefine requires BuildPatternTable";
  TAP_CHECK(ctx.plan.choice.size() == tg.num_nodes())
      << "GlobalRefine requires FamilySearch";
  const sharding::PatternTable& table = *ctx.table;
  const cost::BackwardWindowTerms& terms = full_graph_terms(ctx);
  // Every route of the pass goes through one scratch; a probe that wins
  // swaps buffers with ctx.plan/ctx.routed instead of copying them.
  sharding::RoutingScratch scratch;
  sharding::RoutedPlan routed;
  ShardingPlan reverted;
  std::vector<int> zeros;

  sharding::route_plan_into(tg, ctx.plan, &table, &scratch, &ctx.routed);
  ctx.stats.nodes_visited += static_cast<std::int64_t>(tg.num_nodes());
  double current_cost =
      ctx.routed.valid ? global_cost(ctx.routed, ctx.opts, table, terms).total()
                       : kInvalidPlanCost;
  ++ctx.stats.cost_queries;
  for (const SubgraphFamily& family : ctx.pruning.families) {
    if (!family_is_weighted(tg, family)) continue;
    // Wall-clock cancellation only: the revert probes refine an already
    // valid plan, so an expired deadline just stops refining. The
    // deterministic checkpoint limit deliberately does NOT apply here —
    // checkpoint ordinals cover the family search, and cancelled() never
    // trips under a pure checkpoint limit.
    if (ctx.cancel.cancelled()) {
      ctx.cancelled = true;
      break;
    }
    reverted = ctx.plan;
    zeros.assign(family.member_nodes.size(), 0);
    sharding::apply_family_choice(family, zeros, &reverted);
    sharding::route_plan_into(tg, reverted, &table, &scratch, &routed);
    ctx.stats.nodes_visited += static_cast<std::int64_t>(tg.num_nodes());
    if (!routed.valid) continue;
    ++ctx.stats.cost_queries;
    const double c = global_cost(routed, ctx.opts, table, terms).total();
    if (c < current_cost) {
      current_cost = c;
      std::swap(ctx.plan, reverted);
      std::swap(ctx.routed, routed);
    }
  }
  if (!ctx.routed.valid) {
    // Assembly never produced a routable plan: fall back to pure DP.
    ctx.plan = sharding::default_plan(tg, ctx.opts.num_shards,
                                      ctx.opts.dp_replicas);
    ctx.routed = sharding::route_plan(tg, ctx.plan, &table);
  }
  TAP_CHECK(ctx.routed.valid) << ctx.routed.error;
}

void FinalizeCostPass::run(PlanContext& ctx) const {
  TAP_CHECK(ctx.table.has_value() && ctx.routed.valid)
      << "FinalizeCost requires GlobalRefine";
  ctx.cost = global_cost(ctx.routed, ctx.opts, *ctx.table,
                         full_graph_terms(ctx));
  ++ctx.stats.cost_queries;
}

}  // namespace tap::core
