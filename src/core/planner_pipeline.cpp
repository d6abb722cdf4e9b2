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

/// The full-graph backward-window terms of the context's mesh.
cost::BackwardWindowTerms full_graph_terms(const PlanContext& ctx) {
  return cost::BackwardWindowTerms(ctx.graph(), nullptr, ctx.opts.num_shards,
                                   ctx.plan.dp_replicas, ctx.opts.cluster);
}

/// finalize_cost with the routed plan's PatternTable and full-graph
/// window terms already built.
cost::PlanCost full_graph_cost(const sharding::RoutedPlan& routed,
                               const TapOptions& opts,
                               const sharding::PatternTable& table,
                               const cost::BackwardWindowTerms& terms,
                               cost::CommLedger* ledger = nullptr) {
  cost::CostOptions copts = opts.cost;
  copts.overlap_window_s = terms.window(routed, table);
  return cost::comm_cost(routed, opts.cluster, copts, ledger);
}

bool family_is_weighted(const ir::TapGraph& tg, const SubgraphFamily& f) {
  for (ir::GraphNodeId id : f.member_nodes)
    if (tg.node(id).has_weight()) return true;
  return false;
}

/// True when every instance node of `family` already has pattern 0 in
/// `plan`, so reverting the family would leave the plan unchanged.
bool family_is_reverted(const SubgraphFamily& f, const ShardingPlan& plan) {
  for (const std::vector<ir::GraphNodeId>& instance : f.instance_nodes)
    for (ir::GraphNodeId id : instance)
      if (plan.choice[static_cast<std::size_t>(id)] != 0) return false;
  return true;
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

cost::PlanCost finalize_cost(const ir::TapGraph& tg,
                             const sharding::RoutedPlan& routed,
                             const TapOptions& opts, cost::CommLedger* ledger) {
  const sharding::PatternTable table(tg, routed.num_shards,
                                     routed.dp_replicas);
  const cost::BackwardWindowTerms terms(tg, nullptr, routed.num_shards,
                                        routed.dp_replicas, opts.cluster);
  return full_graph_cost(routed, opts, table, terms, ledger);
}

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
  if (policy == nullptr) policy = std::make_shared<FrontierDpPolicy>();
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
  FamilySearchWork work;
  std::size_t num_searched = 0;
  for (std::size_t i = 0; i < families.size(); ++i) {
    if (!searched[i]) continue;
    ++num_searched;
    pass_stats.merge(outcomes[i].stats);
    work.nodes_routed += outcomes[i].work.nodes_routed;
    work.dp_steps += outcomes[i].work.dp_steps;
    work.band_candidates += outcomes[i].work.band_candidates;
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
  reg.counter("planner.family.nodes_routed")
      ->add(static_cast<std::uint64_t>(work.nodes_routed));
  reg.counter("planner.family.dp_steps")
      ->add(static_cast<std::uint64_t>(work.dp_steps));
  reg.counter("planner.family.band_candidates")
      ->add(static_cast<std::uint64_t>(work.band_candidates));
}

void GlobalRefinePass::run(PlanContext& ctx) const {
  const ir::TapGraph& tg = ctx.graph();
  TAP_CHECK(ctx.table.has_value()) << "GlobalRefine requires BuildPatternTable";
  TAP_CHECK(ctx.plan.choice.size() == tg.num_nodes())
      << "GlobalRefine requires FamilySearch";
  const sharding::PatternTable& table = *ctx.table;
  const cost::BackwardWindowTerms terms = full_graph_terms(ctx);
  // The current plan's route lives in ctx.routed, a probe's in `probe`;
  // an accepted probe swaps its buffer in.
  sharding::RoutingScratch scratch;
  sharding::RoutedPlan probe;
  std::uint64_t routes = 0;
  // Routes `plan` into `*routed` and costs it; false when it does not route.
  auto route_cost = [&](const ShardingPlan& plan, sharding::RoutedPlan* routed,
                        cost::PlanCost* cost) {
    sharding::route_plan_into(tg, plan, table, &scratch, routed);
    ++routes;
    if (!routed->valid) return false;
    *cost = full_graph_cost(*routed, ctx.opts, table, terms);
    return true;
  };
  const auto num_nodes = static_cast<std::int64_t>(tg.num_nodes());
  std::uint64_t probes = 0, skipped = 0;
  ShardingPlan reverted;
  std::vector<int> zeros;

  cost::PlanCost current;
  double current_cost = route_cost(ctx.plan, &ctx.routed, &current)
                            ? current.total()
                            : kInvalidPlanCost;
  ctx.stats.nodes_visited += num_nodes;
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
    ++probes;
    // The counters are part of the plan bytes, so every probe counts as
    // a whole-graph route (and a cost query when it routes).
    ctx.stats.nodes_visited += num_nodes;
    if (family_is_reverted(family, ctx.plan)) {
      // Reverting changes nothing: the probe would re-route the current
      // plan, whose cost cannot beat itself.
      ++skipped;
      if (current_cost != kInvalidPlanCost) ++ctx.stats.cost_queries;
      continue;
    }
    reverted = ctx.plan;
    zeros.assign(family.member_nodes.size(), 0);
    sharding::apply_family_choice(family, zeros, &reverted);
    cost::PlanCost c;
    if (!route_cost(reverted, &probe, &c)) continue;
    ++ctx.stats.cost_queries;
    if (c.total() < current_cost) {
      current = c;
      current_cost = c.total();
      std::swap(ctx.plan, reverted);
      std::swap(ctx.routed, probe);
    }
  }
  if (current_cost == kInvalidPlanCost) {
    // Assembly never produced a routable plan: fall back to pure DP.
    ctx.plan = sharding::default_plan(tg, ctx.opts.num_shards,
                                      ctx.opts.dp_replicas);
    const bool ok = route_cost(ctx.plan, &ctx.routed, &current);
    TAP_CHECK(ok) << ctx.routed.error;
  }
  ctx.routed_cost = current;
  obs::MetricsRegistry& reg = obs::registry();
  reg.counter("planner.refine.probes")->add(probes);
  reg.counter("planner.refine.skipped_probes")->add(skipped);
  reg.counter("planner.refine.nodes_routed")
      ->add(routes * static_cast<std::uint64_t>(num_nodes));
}

void FinalizeCostPass::run(PlanContext& ctx) const {
  TAP_CHECK(ctx.table.has_value() && ctx.routed.valid)
      << "FinalizeCost requires GlobalRefine";
  if (ctx.routed_cost.has_value()) {
    ctx.cost = *ctx.routed_cost;
  } else {
    ctx.cost = full_graph_cost(ctx.routed, ctx.opts, *ctx.table,
                               full_graph_terms(ctx));
  }
  ++ctx.stats.cost_queries;
}

}  // namespace tap::core
