#include "service/planner_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "baselines/expert_plans.h"
#include "core/plan_context.h"
#include "core/planner_pipeline.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "sharding/pattern.h"
#include "sharding/routing.h"
#include "util/check.h"
#include "util/fault.h"

namespace tap::service {

namespace {

/// Global-registry mirrors of ServiceStats (per-instance stats stay exact
/// in PlannerService::stats_).
struct ServiceMetrics {
  obs::Counter* requests = obs::registry().counter("service.requests");
  obs::Counter* searches = obs::registry().counter("service.searches");
  obs::Counter* cache_hits = obs::registry().counter("service.cache_hits");
  obs::Counter* coalesced = obs::registry().counter("service.coalesced");
  obs::Histogram* search_ms = obs::registry().histogram("service.search_ms");
  obs::Counter* deadline_hit =
      obs::registry().counter("service.deadline_hit");
  obs::Counter* fallback = obs::registry().counter("service.fallback");
  obs::Counter* shed = obs::registry().counter("service.shed");
  obs::Counter* shed_by_class =
      obs::registry().counter("service.admission.shed_by_class");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics m;
  return m;
}

/// The CachingFamilyPolicy key of one (family, options) pair: family
/// fingerprint x options fingerprint.
Fingerprint family_result_key(const ir::TapGraph& tg,
                              const pruning::SubgraphFamily& family,
                              const core::TapOptions& opts) {
  return util::hash128_combine(family_fingerprint(tg, family),
                               options_fingerprint(opts));
}

}  // namespace

const char* served_name(PlanTelemetry::Served served) {
  switch (served) {
    case PlanTelemetry::Served::kSearched:
      return "searched";
    case PlanTelemetry::Served::kMemoryHit:
      return "memory";
    case PlanTelemetry::Served::kDiskHit:
      return "disk";
    case PlanTelemetry::Served::kCoalesced:
      return "coalesced";
    case PlanTelemetry::Served::kFallback:
      return "fallback";
    case PlanTelemetry::Served::kShed:
      return "shed";
    case PlanTelemetry::Served::kUnknown:
      break;
  }
  return "-";
}

// ---------------------------------------------------------------------------
// CachingFamilyPolicy
// ---------------------------------------------------------------------------

CachingFamilyPolicy::CachingFamilyPolicy(
    std::shared_ptr<const core::FamilySearchPolicy> inner)
    : inner_(std::move(inner)) {
  if (!inner_) inner_ = std::make_shared<core::FrontierDpPolicy>();
}

std::string CachingFamilyPolicy::name() const {
  return "caching(" + inner_->name() + ")";
}

core::FamilySearchOutcome CachingFamilyPolicy::search(
    const core::FamilySearchContext& ctx,
    const pruning::SubgraphFamily& family,
    const sharding::ShardingPlan& base) const {
  // The outcome depends on the family's structure (incl. boundary specs)
  // and the planning options — never on `base`, whose member entries the
  // search overwrites before scoring.
  const Fingerprint key =
      family_result_key(ctx.graph(), family, ctx.options());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = outcomes_.find(key);
    if (it == outcomes_.end()) {
      ++misses_;
    } else {
      ++hits_;
      const core::FamilySearchOutcome& hit = it->second;
      if (!hit.found || hit.choice.size() == family.member_nodes.size()) {
        core::FamilySearchOutcome out = hit;
        out.work = {};  // replayed, not searched
        return out;
      }
    }
  }
  core::FamilySearchOutcome out = inner_->search(ctx, family, base);
  std::lock_guard<std::mutex> lock(mu_);
  outcomes_.emplace(key, out);  // first writer wins; equal key => equal value
  return out;
}

std::uint64_t CachingFamilyPolicy::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t CachingFamilyPolicy::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

// ---------------------------------------------------------------------------
// PlannerService
// ---------------------------------------------------------------------------

PlannerService::PlannerService(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache),
      families_(std::make_shared<CachingFamilyPolicy>()),
      pool_(opts_.request_threads) {}

PlanKey PlannerService::key_for(const PlanRequest& req) const {
  TAP_CHECK(req.tg != nullptr) << "PlanRequest has no graph";
  return make_plan_key(*req.tg, req.opts, req.sweep_mesh);
}

core::TapResult PlannerService::materialize(const PlanRequest& req,
                                            const PlanRecord& record) const {
  core::TapResult r;
  r.best_plan = record.plan;
  // Routing is a deterministic function of (graph, plan): recomputing it
  // reproduces the cold result exactly, and route_plan re-validates the
  // cached choices against the live graph.
  r.routed = sharding::route_plan(*req.tg, record.plan);
  TAP_CHECK(r.routed.valid)
      << "cached plan does not route: " << r.routed.error;
  // Only complete plans are cached: the search covered every weighted
  // family of every mesh the request names, as a cold search reports.
  const std::size_t families = core::weighted_family_count(
      *req.tg, pruning::prune_graph(*req.tg, req.opts.prune));
  core::PlanProvenance& prov = r.provenance;
  prov.meshes_total = static_cast<std::int64_t>(
      req.sweep_mesh ? core::sweep_tps(req.opts.cluster.world()).size() : 1);
  prov.meshes_searched = prov.meshes_total;
  prov.families_total = prov.meshes_total * static_cast<std::int64_t>(families);
  prov.families_searched = prov.families_total;
  r.cost = record.cost;
  r.candidate_plans = record.stats.candidate_plans;
  r.valid_plans = record.stats.valid_plans;
  r.nodes_visited = record.stats.nodes_visited;
  r.cost_queries = record.stats.cost_queries;
  r.search_seconds = record.search_seconds;
  return r;
}

core::TapResult PlannerService::run_search(const PlanRequest& req,
                                           util::CancellationToken cancel) {
  // Fault site for the whole search ("the planner worker died"): a throw
  // here propagates through the request future exactly like a real
  // planner failure.
  TAP_FAULT_POINT("service.search");
  if (opts_.search_override) return opts_.search_override(req);
  return req.sweep_mesh
             ? core::auto_parallel_best_mesh(*req.tg, req.opts, families_,
                                             std::move(cancel))
             : core::auto_parallel(*req.tg, req.opts, families_,
                                   std::move(cancel));
}

core::TapResult PlannerService::fallback_result(const PlanRequest& req,
                                                const std::string& reason) {
  service_metrics().fallback->add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.fallbacks;
  }
  const ir::TapGraph& tg = *req.tg;
  // For a mesh sweep the fallback commits to full tensor parallelism over
  // the whole world — the Megatron expert choice; a fixed-mesh request
  // keeps its requested mesh.
  const int tp =
      req.sweep_mesh ? req.opts.cluster.world() : req.opts.num_shards;
  sharding::ShardingPlan plan = baselines::megatron_plan(tg, tp);
  sharding::RoutedPlan routed = sharding::route_plan(tg, plan);
  if (!routed.valid) {
    // Megatron's column/row pairing does not fit every graph; pure data
    // parallelism routes on anything lowering accepts.
    plan = baselines::data_parallel_plan(tg, tp);
    routed = sharding::route_plan(tg, plan);
  }
  TAP_CHECK(routed.valid) << "fallback plan does not route: " << routed.error;
  core::TapResult r;
  r.best_plan = std::move(plan);
  r.routed = std::move(routed);
  // FinalizeCost's recipe, as for a searched plan, so /plan and /explain
  // give a fallback the same cost.
  r.cost = core::finalize_cost(tg, r.routed, req.opts.cluster);
  r.provenance.source = core::PlanSource::kFallback;
  r.provenance.fallback_reason = reason;
  return r;
}

std::shared_future<core::TapResult> PlannerService::submit(
    const PlanRequest& req, PlanTelemetry* telem) {
  return submit(req, key_for(req), telem);
}

std::shared_future<core::TapResult> PlannerService::submit(
    const PlanRequest& req, const PlanKey& key, PlanTelemetry* telem) {
  service_metrics().requests->add(1);

  // The deadline clock starts now — queue wait behind other searches
  // counts against the budget, which is the serving-side contract.
  util::CancellationToken cancel = core::cancellation_for(req.opts);

  auto prom = std::make_shared<std::promise<core::TapResult>>();
  std::shared_future<core::TapResult> fut;
  std::uint64_t search_seq = 0;
  // Under mu_: the in-flight search for `key` this request joins, if any.
  const auto join = [&]() -> const std::shared_future<core::TapResult>* {
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return nullptr;
    ++stats_.coalesced;
    service_metrics().coalesced->add(1);
    if (obs::TraceSession* s = obs::active_session())
      s->instant("service.coalesced", "service");
    if (telem != nullptr) telem->served = PlanTelemetry::Served::kCoalesced;
    return &it->second;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    if (const auto* joined = join()) return *joined;
  }
  // The lookup runs outside mu_: a disk hit reads, parses and validates a
  // file, and on an I/O fault sleeps its retry backoff, which no other
  // request may wait on.
  PlanCache::Tier tier = PlanCache::Tier::kMiss;
  std::optional<PlanRecord> hit = cache_.lookup(key, *req.tg, &tier);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!hit) {
      // Join/re-check/register are one atomic step: a search for `key`
      // that completed since the checks above inserted its record BEFORE
      // erasing its in-flight entry, so a duplicate submitted at ANY point
      // lands on either the in-flight future or the memory tier, and
      // `searches` counts exactly the distinct keys ever submitted.
      if (const auto* joined = join()) return *joined;
      hit = cache_.memory_lookup(key);
      if (hit) tier = PlanCache::Tier::kMemory;
    }
    if (hit) {
      ++stats_.cache_hits;
      service_metrics().cache_hits->add(1);
      if (telem != nullptr) {
        telem->served = tier == PlanCache::Tier::kDisk
                            ? PlanTelemetry::Served::kDiskHit
                            : PlanTelemetry::Served::kMemoryHit;
      }
    } else {
      // Load shedding happens last: only a request that would START a new
      // search is shed — coalesced duplicates and cache hits cost almost
      // nothing and are always served. Admission is by deadline class:
      // batch traffic ("none"/"relaxed") is held to batch_admission *
      // max_pending, so under pressure it sheds first while interactive
      // traffic ("tight"/"standard") still gets the remaining headroom.
      if (opts_.max_pending > 0) {
        const char* cls = core::deadline_class_name(req.opts.deadline_ms);
        const bool batch = std::strcmp(cls, "none") == 0 ||
                           std::strcmp(cls, "relaxed") == 0;
        std::size_t bound = opts_.max_pending;
        if (batch && opts_.batch_admission < 1.0) {
          const double frac =
              opts_.batch_admission < 0.0 ? 0.0 : opts_.batch_admission;
          bound = std::max<std::size_t>(
              1, static_cast<std::size_t>(
                     static_cast<double>(opts_.max_pending) * frac));
        }
        if (inflight_.size() >= bound) {
          ++stats_.shed;
          service_metrics().shed->add(1);
          if (batch && inflight_.size() < opts_.max_pending) {
            // Shed by CLASS, not by absolute pressure: an interactive
            // request arriving at this instant would still be admitted.
            ++stats_.shed_by_class;
            service_metrics().shed_by_class->add(1);
          }
          if (telem != nullptr) {
            telem->served = PlanTelemetry::Served::kShed;
            telem->reason = "overloaded";
          }
          throw OverloadedError(inflight_.size(),
                                opts_.shed_retry_after_ms);
        }
      }
      fut = prom->get_future().share();
      inflight_.emplace(key, fut);
      search_seq = ++stats_.searches;
      service_metrics().searches->add(1);
      if (telem != nullptr) telem->served = PlanTelemetry::Served::kSearched;
    }
  }

  if (hit) {
    // Materialize outside mu_ (prune + route are pure); concurrent hits
    // for the same key just materialize independently.
    TAP_SPAN("service.materialize", "service");
    prom->set_value(materialize(req, *hit));
    return prom->get_future().share();
  }

  // The submitting thread's request context (if a handler installed one)
  // is captured BY VALUE and re-installed on the pool thread, so pipeline
  // pass spans executed there still tag the originating trace id. The
  // context carries serving metadata only — never plan bytes.
  const obs::RequestContext* rc = obs::current_request_context();
  const bool has_ctx = rc != nullptr;
  const obs::RequestContext rctx = has_ctx ? *rc : obs::RequestContext{};

  // The request may complete on another pool thread, so it is traced as
  // an explicit async span keyed by its search sequence number.
  if (obs::TraceSession* s = obs::active_session()) {
    if (has_ctx && rctx.sampled) {
      s->async_begin("service.search", "service", search_seq,
                     {{"trace", rctx.trace_hex()}});
    } else {
      s->async_begin("service.search", "service", search_seq);
    }
  }

  PlanRequest task_req = req;
  pool_.submit([this, key, task_req, prom, search_seq, cancel, has_ctx,
                rctx] {
    std::optional<obs::ScopedRequestContext> rscope;
    if (has_ctx) rscope.emplace(rctx);
    const bool traced = obs::tracing_enabled();
    const double t_start_us = traced ? obs::steady_now_us() : 0.0;
    try {
      core::TapResult result = run_search(task_req, cancel);
      // Only COMPLETE plans enter the cache: an anytime plan reflects
      // where a particular deadline happened to land, and caching it
      // would serve that degraded plan to undeadlined requests forever.
      if (result.provenance.complete())
        cache_.insert(key, result, *task_req.tg);
      {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
      }
      if (traced)
        service_metrics().search_ms->observe(
            (obs::steady_now_us() - t_start_us) * 1e-3);
      if (obs::TraceSession* s = obs::active_session())
        s->async_end("service.search", "service", search_seq);
      prom->set_value(std::move(result));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
      }
      if (obs::TraceSession* s = obs::active_session())
        s->async_end("service.search", "service", search_seq);
      prom->set_exception(std::current_exception());
    }
  });
  return fut;
}

core::TapResult PlannerService::plan(const PlanRequest& req,
                                     PlanTelemetry* telem) {
  return plan(req, key_for(req), telem);
}

core::TapResult PlannerService::plan(const PlanRequest& req,
                                     const PlanKey& key,
                                     PlanTelemetry* telem) {
  // Timing in the blocking wrapper only: submit()'s future may resolve on
  // another thread at any time, so the synchronous caller is the one
  // place a queue/search split can be measured without racing. search_ms
  // is the result's own search_seconds (zero for hits — materialization
  // is queue time); queue_ms is whatever wall time remains.
  const auto t_start = std::chrono::steady_clock::now();
  const auto finish = [&](const core::TapResult& result) {
    if (telem == nullptr) return;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t_start)
            .count();
    telem->search_ms = telem->served == PlanTelemetry::Served::kSearched
                           ? result.search_seconds * 1e3
                           : 0.0;
    telem->queue_ms = std::max(0.0, wall_ms - telem->search_ms);
  };

  // Without a deadline plan() is a plain blocking wrapper: search errors
  // propagate to the caller (tests rely on this; there is no silent
  // degradation unless the caller opted into a latency budget).
  if (req.opts.deadline_ms <= 0) {
    core::TapResult r = submit(req, key, telem).get();
    finish(r);
    return r;
  }

  const auto count_deadline_hit = [this] {
    service_metrics().deadline_hit->add(1);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deadline_hits;
  };
  const auto fall_back = [&](const std::string& reason) {
    if (telem != nullptr) {
      telem->served = PlanTelemetry::Served::kFallback;
      telem->reason = reason;
    }
    core::TapResult r = fallback_result(req, reason);
    finish(r);
    return r;
  };

  std::shared_future<core::TapResult> fut;
  try {
    fut = submit(req, key, telem);
  } catch (const OverloadedError&) {
    // A deadlined plan() never throws: shedding degrades to the expert
    // fallback (submit already counted service.shed).
    return fall_back("overloaded");
  }

  // The search polls the deadline cooperatively, so a deadlined result
  // normally arrives just after the budget. The grace margin covers
  // checkpoint granularity — and the coalesced case, where this request
  // joined an UNDEADLINED in-flight search that will not stop on our
  // budget. Past the grace we stop waiting and fall back; the abandoned
  // future still completes and caches normally.
  const auto budget = std::chrono::milliseconds(req.opts.deadline_ms);
  const auto grace = budget + budget / 2 + std::chrono::milliseconds(50);
  if (fut.wait_for(grace) != std::future_status::ready) {
    count_deadline_hit();
    core::TapResult r = fall_back("deadline");
    r.provenance.deadline_hit = true;
    return r;
  }
  try {
    core::TapResult r = fut.get();
    if (r.provenance.deadline_hit) count_deadline_hit();
    finish(r);
    return r;
  } catch (const util::CancelledError&) {
    // Cancelled before ANY factorization finished: nothing anytime to
    // return, so degrade.
    count_deadline_hit();
    core::TapResult r = fall_back("deadline");
    r.provenance.deadline_hit = true;
    return r;
  } catch (const std::exception& e) {
    return fall_back(e.what());
  } catch (...) {
    return fall_back("search failed");
  }
}

std::shared_ptr<const report::PlanReport> PlannerService::explain(
    const PlanRequest& req) {
  return explain(req, key_for(req));
}

std::shared_ptr<const report::PlanReport> PlannerService::explain(
    const PlanRequest& req, const PlanKey& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = reports_.find(key);
    if (it != reports_.end()) {
      ++stats_.report_hits;
      report_lru_.splice(report_lru_.begin(), report_lru_, it->second.lru);
      return it->second.report;
    }
  }
  // Plan through the normal submit path (coalesced / cached), then build
  // the report outside mu_ — it re-simulates a step, which is far too slow
  // to hold the service lock across. Reports are deterministic, so if two
  // explains race here, both builds produce identical content and the
  // first insert wins.
  core::TapResult result = plan(req, key);
  auto built = std::make_shared<const report::PlanReport>(
      report::build_report(*req.tg, result, req.opts, opts_.report));
  if (!result.provenance.complete()) {
    // Degraded plans depend on where a deadline landed; caching their
    // reports under the plan key would pin one timing forever. Serve the
    // report, count the build, cache nothing.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.report_builds;
    return built;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = reports_.try_emplace(key);
  if (!inserted) {
    ++stats_.report_hits;
    return it->second.report;
  }
  ++stats_.report_builds;
  report_lru_.push_front(key);
  it->second = {built, report_lru_.begin()};
  // Bounded like the plan cache's memory tier: a long-running server
  // would otherwise keep a report for every key it ever explained.
  while (reports_.size() > opts_.cache.capacity) {
    reports_.erase(report_lru_.back());
    report_lru_.pop_back();
  }
  return built;
}

ServiceStats PlannerService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  s.family_hits = families_->hits();
  s.family_misses = families_->misses();
  return s;
}

}  // namespace tap::service
