#include "core/tap.h"

#include <utility>

#include "core/planner_pipeline.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace tap::core {

const char* plan_source_name(PlanSource source) {
  switch (source) {
    case PlanSource::kComplete:
      return "complete";
    case PlanSource::kAnytime:
      return "anytime";
    case PlanSource::kFallback:
      return "fallback";
  }
  return "unknown";
}

PlanSource plan_source_from_name(const std::string& name) {
  for (PlanSource s : {PlanSource::kComplete, PlanSource::kAnytime,
                       PlanSource::kFallback})
    if (name == plan_source_name(s)) return s;
  TAP_CHECK(false) << "unknown plan source '" << name << "'";
  return PlanSource::kComplete;
}

util::CancellationToken cancellation_for(const TapOptions& opts) {
  if (opts.deadline_ms <= 0 && opts.max_checkpoints < 0) return {};
  util::CancellationSource src;
  if (opts.deadline_ms > 0)
    src.set_deadline(
        util::Deadline::after_ms(static_cast<double>(opts.deadline_ms)));
  if (opts.max_checkpoints >= 0)
    src.set_checkpoint_limit(opts.max_checkpoints);
  return src.token();  // shares ownership; outlives the local source
}

namespace {

TapResult context_to_result(PlanContext&& ctx, double elapsed_seconds) {
  TapResult r;
  r.best_plan = std::move(ctx.plan);
  r.routed = std::move(ctx.routed);
  r.cost = ctx.cost;
  r.pruning = std::move(ctx.pruning);
  r.candidate_plans = ctx.stats.candidate_plans;
  r.valid_plans = ctx.stats.valid_plans;
  r.nodes_visited = ctx.stats.nodes_visited;
  r.cost_queries = ctx.stats.cost_queries;
  r.search_seconds = elapsed_seconds;
  r.pass_timings = std::move(ctx.timings);
  r.provenance.source =
      ctx.cancelled ? PlanSource::kAnytime : PlanSource::kComplete;
  r.provenance.families_searched = ctx.families_searched;
  r.provenance.families_total = ctx.families_total;
  r.provenance.meshes_searched = 1;  // fixed mesh; the sweep overwrites
  r.provenance.meshes_total = 1;
  r.provenance.deadline_hit = ctx.cancelled && ctx.cancel.cancelled();
  return r;
}

TapResult run_standard(const ir::TapGraph& tg, const TapOptions& opts,
                       const pruning::PruneResult* shared_pruning,
                       const std::shared_ptr<const FamilySearchPolicy>&
                           policy,
                       util::CancellationToken cancel,
                       std::uint64_t checkpoint_base) {
  util::Stopwatch sw;
  PlanContext ctx;
  ctx.tg = &tg;
  ctx.opts = opts;
  ctx.shared_pruning = shared_pruning;
  ctx.cancel = std::move(cancel);
  ctx.checkpoint_base = checkpoint_base;
  PlannerPipeline::standard(policy).run(ctx);
  return context_to_result(std::move(ctx), sw.elapsed_seconds());
}

}  // namespace

TapResult auto_parallel(const ir::TapGraph& tg, const TapOptions& opts,
                        std::shared_ptr<const FamilySearchPolicy> policy,
                        util::CancellationToken cancel) {
  TAP_CHECK_GE(opts.num_shards, 1);
  TAP_CHECK_GE(opts.dp_replicas, 1);
  if (!cancel.can_cancel()) cancel = cancellation_for(opts);
  return run_standard(tg, opts, nullptr, policy, std::move(cancel),
                      /*checkpoint_base=*/0);
}

TapResult auto_parallel_best_mesh(const ir::TapGraph& tg,
                                  const TapOptions& opts,
                                  std::shared_ptr<const FamilySearchPolicy>
                                      policy,
                                  util::CancellationToken cancel) {
  util::Stopwatch sw;
  if (!cancel.can_cancel()) cancel = cancellation_for(opts);
  const int world = opts.cluster.world();
  const std::vector<int> tps = sweep_tps(world);
  TAP_CHECK(!tps.empty());

  // Pruning is mesh-independent (Algorithm 1 only inspects names and
  // structure), so run it ONCE and share it across factorizations. The
  // PatternTable, by contrast, must be rebuilt per mesh: patterns_for
  // filters by divisibility against num_shards and gates the batch-split
  // "dp" pattern on batch % (dp·tp) == 0. Both are O(V) per call and of
  // the same order (bench_fig9 prints them for T5-48L), so hoisting Prune
  // saves |factorizations| - 1 of its calls. Everything else the meshes
  // share — the op costs behind the backward-window terms — is stored on
  // the TapGraph at lowering.
  const pruning::PruneResult shared_pruning =
      pruning::prune_graph(tg, opts.prune);

  // Checkpoint ordinal layout: factorization i owns the half-open range
  // [i*stride, (i+1)*stride) with stride = weighted families + 1. Ordinal
  // i*stride gates the whole factorization; the rest are its per-family
  // checkpoints. The ranges depend only on the (shared) pruning, so a
  // deterministic checkpoint limit selects the same mesh/family subset at
  // any thread count.
  const std::uint64_t stride =
      static_cast<std::uint64_t>(
          weighted_family_count(tg, shared_pruning)) +
      1;

  // The factorizations are the parallel axis; each inner pipeline runs its
  // family search sequentially to avoid nested oversubscription. A
  // single-factorization world keeps the inner parallelism instead.
  std::vector<TapResult> results(tps.size());
  std::vector<char> mesh_searched(tps.size(), 0);
  util::ThreadPool pool(tps.size() > 1 ? opts.threads : 1);
  pool.parallel_for(tps.size(), [&](std::size_t i) {
    if (cancel.checkpoint(static_cast<std::uint64_t>(i) * stride)) return;
    TapOptions mesh_opts = opts;
    mesh_opts.num_shards = tps[i];
    mesh_opts.dp_replicas = world / tps[i];
    if (tps.size() > 1) mesh_opts.threads = 1;
    results[i] =
        run_standard(tg, mesh_opts, &shared_pruning, policy, cancel,
                     static_cast<std::uint64_t>(i) * stride + 1);
    mesh_searched[i] = 1;
  });

  // Deterministic join: aggregate statistics and pick the winner in mesh
  // index order — equal-cost ties resolve to the smaller tp (the seed
  // iteration order), never to completion order.
  TapResult best;
  bool have = false;
  double best_cost = kInvalidPlanCost;
  std::int64_t candidates = 0, valid = 0, visited = 0, queries = 0;
  PlanProvenance prov;
  prov.meshes_total = static_cast<std::int64_t>(tps.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    TapResult& r = results[i];
    if (!mesh_searched[i]) {
      // The whole factorization was skipped: its families count as
      // unsearched so provenance fractions stay comparable across runs.
      prov.families_total += static_cast<std::int64_t>(stride) - 1;
      continue;
    }
    ++prov.meshes_searched;
    prov.families_searched += r.provenance.families_searched;
    prov.families_total += r.provenance.families_total;
    if (!r.provenance.complete()) prov.source = PlanSource::kAnytime;
    prov.deadline_hit = prov.deadline_hit || r.provenance.deadline_hit;
    candidates += r.candidate_plans;
    valid += r.valid_plans;
    visited += r.nodes_visited;
    queries += r.cost_queries;
    if (!r.routed.valid) continue;
    const double c = r.cost.total();
    if (!have || c < best_cost) {
      have = true;
      best_cost = c;
      best = std::move(r);
    }
  }
  if (prov.meshes_searched < prov.meshes_total) {
    prov.source = PlanSource::kAnytime;
    prov.deadline_hit = prov.deadline_hit || cancel.cancelled();
  }
  if (!have && cancel.can_cancel()) {
    // Distinguishable from a planner bug: the sweep was cancelled before
    // any factorization produced a plan. The PlannerService catches this
    // and degrades to the expert-baseline fallback.
    throw util::CancelledError(
        "mesh sweep cancelled before any factorization completed");
  }
  TAP_CHECK(have) << "no mesh factorization produced a valid plan";
  best.candidate_plans = candidates;
  best.valid_plans = valid;
  best.nodes_visited = visited;
  best.cost_queries = queries;
  best.search_seconds = sw.elapsed_seconds();
  best.provenance = prov;
  return best;
}

std::vector<int> sweep_tps(int world) {
  std::vector<int> tps;
  for (int tp = 1; tp <= world; ++tp) {
    if (world % tp == 0) tps.push_back(tp);
  }
  return tps;
}

}  // namespace tap::core
