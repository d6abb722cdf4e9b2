// PlannerService — the concurrent front end of the planner (ISSUE:
// plan-cache subsystem).
//
// A service owns a two-tier PlanCache (service/plan_cache.h), a
// family-memoizing search policy, and a util::ThreadPool of request
// workers.
// Clients submit PlanRequests and get back shared_futures of the exact
// TapResult a direct auto_parallel / auto_parallel_best_mesh call would
// produce — the planner is deterministic and the cache key captures every
// planning-relevant input (service/fingerprint.h), so serving from cache
// is bit-identical to searching, which the service tests enforce field by
// field.
//
// Request flow:
//   1. coalesce — an in-flight request with the same key returns the same
//      future (single-flight: N concurrent identical requests cost ONE
//      search, counted in ServiceStats::coalesced);
//   2. cache hit — a lookup outside the service mutex (a disk hit reads a
//      file) finds the stored PlanRecord, which is re-materialized
//      (deterministic prune + route against the live graph) into a ready
//      future;
//   3. miss — under the mutex, coalesce and the memory tier are checked
//      again, then the key is registered in-flight and the search runs on
//      the pool. The completion order is: cache insert, THEN in-flight
//      erase, THEN promise fulfilment — so at every instant a duplicate
//      request finds either the in-flight entry or the cached record,
//      never a gap. Hence the invariant the tests assert: searches ==
//      distinct keys.
//
// On a whole-graph miss the service still reuses work at the family level:
// every search runs through the service's CachingFamilyPolicy, so a family
// whose fingerprint was already searched (e.g. the same encoder block in a
// deeper build of the model) is answered from memory instead of
// re-enumerated. This is the paper's depth-independence carried across
// *requests*, not just across instances within one graph. It is also how
// an edited model replans incrementally: only families whose fingerprint
// changed are searched, and the result is bit-identical to a cold search.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/tap.h"
#include "report/report.h"
#include "service/fingerprint.h"
#include "service/plan_cache.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace tap::service {

/// Thrown by submit()/plan() when ServiceOptions::max_pending is set and
/// the request's admission bound is reached — load shedding at the front
/// door, so an overload fails fast instead of queueing unboundedly.
/// Counted in ServiceStats::shed / `service.shed`; carries the
/// Retry-After hint the HTTP handler surfaces with its 503.
class OverloadedError : public std::runtime_error {
 public:
  explicit OverloadedError(std::size_t pending,
                           double retry_after_ms = 1000.0)
      : std::runtime_error("PlannerService overloaded: " +
                           std::to_string(pending) +
                           " searches already pending"),
        retry_after_ms_(retry_after_ms) {}

  double retry_after_ms() const { return retry_after_ms_; }

 private:
  double retry_after_ms_;
};

/// One planning request. The graph is borrowed: the caller must keep it
/// alive until the returned future resolves.
struct PlanRequest {
  const ir::TapGraph* tg = nullptr;
  core::TapOptions opts;
  /// false = fixed-mesh auto_parallel; true = auto_parallel_best_mesh
  /// (opts.num_shards / dp_replicas are ignored, as in the direct call).
  bool sweep_mesh = false;
};

/// Per-request serving telemetry, filled by submit()/plan() when the
/// caller passes one. Everything here is serving METADATA — it feeds the
/// flight recorder, access log, and latency histograms, never the plan
/// bytes (the determinism contract of service/wire.h).
struct PlanTelemetry {
  enum class Served : std::uint8_t {
    kUnknown = 0,
    kSearched,   ///< a fresh planner search ran for this key
    kMemoryHit,  ///< answered by the PlanCache memory tier
    kDiskHit,    ///< answered by the PlanCache disk tier (promoted)
    kCoalesced,  ///< joined an in-flight search for the same key
    kFallback,   ///< degraded to the expert-baseline fallback plan
    kShed,       ///< rejected by load shedding (OverloadedError)
  };
  Served served = Served::kUnknown;
  /// plan() only: wall time spent waiting that was NOT the search itself
  /// (queueing behind other requests, coalesced waits). submit() leaves
  /// these zero — the async caller owns its own clock.
  double queue_ms = 0.0;
  /// plan() only: the search's own duration (result.search_seconds).
  double search_ms = 0.0;
  /// Fallback/shed reason ("deadline", "overloaded", an error message).
  std::string reason;
};

/// Static-storage label of a Served kind ("searched", "memory", "disk",
/// "coalesced", "fallback", "shed", "-"). Safe to hold by pointer in POD
/// records.
const char* served_name(PlanTelemetry::Served served);

struct ServiceStats {
  std::uint64_t requests = 0;
  /// Full planner searches actually executed (== distinct keys submitted).
  std::uint64_t searches = 0;
  /// Requests answered from the PlanCache (memory or disk tier).
  std::uint64_t cache_hits = 0;
  /// Requests that joined an in-flight search for the same key.
  std::uint64_t coalesced = 0;
  /// Family-level reuse inside cache-missing searches.
  std::uint64_t family_hits = 0;
  std::uint64_t family_misses = 0;
  /// explain() calls that built a fresh PlanReport vs served a cached one.
  std::uint64_t report_builds = 0;
  std::uint64_t report_hits = 0;
  /// plan() calls whose deadline expired before the search completed
  /// (the result was anytime or fallback).
  std::uint64_t deadline_hits = 0;
  /// plan() calls answered with the expert-baseline fallback plan.
  std::uint64_t fallbacks = 0;
  /// submit() calls rejected with OverloadedError.
  std::uint64_t shed = 0;
  /// The subset of `shed` rejected by the deadline-class admission policy
  /// — batch-class requests shed while interactive headroom remained.
  std::uint64_t shed_by_class = 0;
  /// Always 0. Kept only because the benchmark harness still reads it
  /// (perfbench/src/serve.cpp); the next change to the benchmark removes
  /// both the read and this field. Edited models replan through the
  /// family cache: see family_hits.
  std::uint64_t incremental_hits = 0;
};

struct ServiceOptions {
  PlanCacheOptions cache;
  /// Worker threads executing requests. <= 0 selects
  /// hardware_concurrency(); 1 runs searches inline on the submitting
  /// thread (futures are then always ready when submit returns).
  int request_threads = 0;
  /// Test/bench hook: when set, replaces the planner invocation on a cache
  /// miss (the result is still cached and coalesced normally). Lets tests
  /// hold a search open on a latch to observe single-flight, and benches
  /// measure pure cache overhead.
  std::function<core::TapResult(const PlanRequest&)> search_override;
  /// Settings for the PlanReports explain() builds and caches.
  report::ReportOptions report;
  /// Load-shedding bound: submit() throws OverloadedError when this many
  /// searches are already in flight. 0 = unbounded (the default).
  /// Coalesced duplicates and cache hits are never shed — only requests
  /// that would start a NEW search count against the bound.
  std::size_t max_pending = 0;
  /// Deadline-class admission (ISSUE 10): with max_pending set, batch
  /// traffic (deadline class "none"/"relaxed") is admitted only up to
  /// batch_admission * max_pending in-flight searches, reserving the
  /// remaining headroom for interactive classes ("tight"/"standard") —
  /// under pressure, batch sheds first and interactive keeps its slot.
  /// 1.0 (the default) admits every class up to max_pending, the
  /// pre-ISSUE-10 policy. Clamped below so at least one batch slot
  /// always exists.
  double batch_admission = 1.0;
  /// Retry-After hint (milliseconds) carried by OverloadedError; the
  /// HTTP handler rounds it up to whole seconds for the 503 header.
  double shed_retry_after_ms = 1000.0;
};

/// FamilySearchPolicy decorator that memoizes outcomes by
/// family-fingerprint x options-fingerprint in one mutex-guarded map,
/// held for map operations only, never across a search. Unbounded: family
/// outcomes are a few ints per distinct (family, options) pair. Safe for
/// the parallel FamilySearch pass and the mesh sweep; two threads that
/// miss on one key both search it, and the first insert wins (equal keys
/// give equal outcomes). A cached outcome whose choice does not match the
/// family's member count (a fingerprint collision — never observed, but
/// cheap to guard) falls through to the inner policy.
class CachingFamilyPolicy final : public core::FamilySearchPolicy {
 public:
  /// `inner` searches on a miss; nullptr selects core::FrontierDpPolicy.
  explicit CachingFamilyPolicy(
      std::shared_ptr<const core::FamilySearchPolicy> inner = nullptr);

  std::string name() const override;
  core::FamilySearchOutcome search(
      const core::FamilySearchContext& ctx,
      const pruning::SubgraphFamily& family,
      const sharding::ShardingPlan& base) const override;

  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  std::shared_ptr<const core::FamilySearchPolicy> inner_;
  mutable std::mutex mu_;  ///< guards outcomes_, hits_ and misses_
  mutable std::unordered_map<Fingerprint, core::FamilySearchOutcome,
                             FingerprintHash>
      outcomes_;
  mutable std::uint64_t hits_ = 0, misses_ = 0;
};

class PlannerService {
 public:
  explicit PlannerService(ServiceOptions opts = {});
  ~PlannerService() = default;

  PlannerService(const PlannerService&) = delete;
  PlannerService& operator=(const PlannerService&) = delete;

  /// Asynchronous entry point: coalesces, serves from cache, or schedules
  /// a search on the request pool. The future carries the search's
  /// exception if it throws (cache and in-flight state are cleaned up).
  /// Throws OverloadedError when max_pending is set and exceeded. The
  /// request's deadline clock (opts.deadline_ms) starts HERE, so time
  /// spent queued behind other searches counts against the budget.
  /// `telem` (optional) receives the serving kind (coalesced / memory /
  /// disk / searched), decided synchronously before this returns; its
  /// timing fields stay zero — only the blocking plan() owns a clock.
  std::shared_future<core::TapResult> submit(const PlanRequest& req,
                                             PlanTelemetry* telem = nullptr);
  /// submit() under `key`, which must be key_for(req): a caller that
  /// already holds the key (the HTTP handler routes by it) saves hashing
  /// the graph again. The overload above computes the key and calls this.
  std::shared_future<core::TapResult> submit(const PlanRequest& req,
                                             const PlanKey& key,
                                             PlanTelemetry* telem = nullptr);

  /// Blocking wrapper. Without a deadline (opts.deadline_ms <= 0) this is
  /// submit().get() — exceptions propagate. WITH a deadline it is the
  /// serving-side contract of ISSUE 5: it returns a valid routed plan
  /// within (approximately) the budget and NEVER throws from the search —
  /// an overrun or failed search degrades to the expert-baseline fallback
  /// plan, marked in TapResult::provenance and counted in
  /// ServiceStats::deadline_hits / fallbacks.
  /// `telem` (optional) additionally receives queue_ms / search_ms and the
  /// fallback reason — the per-request breakdown the serving tier's flight
  /// recorder and access log report.
  core::TapResult plan(const PlanRequest& req,
                       PlanTelemetry* telem = nullptr);
  /// plan() under `key`, which must be key_for(req) (see submit()).
  core::TapResult plan(const PlanRequest& req, const PlanKey& key,
                       PlanTelemetry* telem = nullptr);

  /// Plans `req` (through the normal submit path: coalesced / cached) and
  /// returns its explainability report. Reports are deterministic
  /// functions of the plan key, so they are cached alongside the plans:
  /// a repeated explain() returns the SAME shared report instance
  /// (ServiceStats::report_hits) without re-simulating. Keeps the
  /// cache.capacity most recently explained keys' reports.
  std::shared_ptr<const report::PlanReport> explain(const PlanRequest& req);
  /// explain() under `key`, which must be key_for(req) (see submit()).
  std::shared_ptr<const report::PlanReport> explain(const PlanRequest& req,
                                                    const PlanKey& key);

  /// The cache key `req` would be served under (exposed for tests and the
  /// CLI's cache-stats output).
  PlanKey key_for(const PlanRequest& req) const;

  ServiceStats stats() const;
  PlanCacheStats cache_stats() const { return cache_.stats(); }
  PlanCache& cache() { return cache_; }
  const ServiceOptions& options() const { return opts_; }

 private:
  core::TapResult run_search(const PlanRequest& req,
                             util::CancellationToken cancel);
  /// Degraded-mode answer when a deadlined plan() got nothing from the
  /// search: the Megatron expert plan from baselines:: (pure-DP if even
  /// that does not route), routed + costed, marked kFallback. Never
  /// cached.
  core::TapResult fallback_result(const PlanRequest& req,
                                  const std::string& reason);
  /// Rebuilds a full TapResult from a cached record: plan/cost/stats come
  /// from the record; routing and the provenance's family count are
  /// recomputed (both deterministic), so the hit is indistinguishable from
  /// a cold search.
  core::TapResult materialize(const PlanRequest& req,
                              const core::PlanRecord& record) const;
  static core::PlanRecord record_of(const core::TapResult& result);

  ServiceOptions opts_;
  PlanCache cache_;
  /// Every search's family memo (run_search passes it to the planner).
  std::shared_ptr<const CachingFamilyPolicy> families_;

  /// A cached report and its place in report_lru_.
  struct CachedReport {
    std::shared_ptr<const report::PlanReport> report;
    std::list<PlanKey>::iterator lru;
  };

  mutable std::mutex mu_;  ///< guards stats_, inflight_ and the reports
  ServiceStats stats_;
  std::unordered_map<PlanKey, std::shared_future<core::TapResult>,
                     PlanKeyHash>
      inflight_;
  std::unordered_map<PlanKey, CachedReport, PlanKeyHash> reports_;
  std::list<PlanKey> report_lru_;  ///< reports_' keys, most recent first

  /// Declared last: the pool's destructor drains queued searches before
  /// the caches and in-flight map above are torn down.
  util::ThreadPool pool_;
};

}  // namespace tap::service
