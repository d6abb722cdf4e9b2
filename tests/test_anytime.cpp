// ISSUE 5 acceptance tests — anytime planning, deadline degradation and
// the fault-injection robustness suite:
//
//   * a checkpoint-limited search is BYTE-IDENTICAL at any thread count
//     (plans and reports), because cancellation is keyed on stable work
//     ordinals, not on wall clock or scheduling;
//   * plan() under a deadline returns a valid routed plan within the
//     budget (+ bounded grace) and never throws from the search — it
//     degrades to anytime results or the expert-baseline fallback;
//   * the seeded FaultInjector drives the five robustness counters
//     (service.deadline_hit, service.fallback, service.shed, cache.retry,
//     cache.quarantined) to EXACT predicted values.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "report/report.h"
#include "service/planner_service.h"
#include "util/fault.h"

namespace tap {
namespace {

namespace fs = std::filesystem;

core::TapOptions small_cluster_opts() {
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  opts.threads = 1;
  return opts;
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("tap_anytime_test_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::uint64_t counter_value(const char* name) {
  return obs::registry().counter(name)->value();
}

// ---------------------------------------------------------------------------
// Anytime determinism
// ---------------------------------------------------------------------------

TEST(Anytime, CheckpointCancelIsByteIdenticalAcrossThreads) {
  Graph g = models::build_transformer(models::t5_with_layers(2));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();

  // Full search first: its provenance tells us the weighted family count,
  // so the cutoff provably lands mid-search.
  const core::TapResult full = core::auto_parallel(tg, opts);
  EXPECT_TRUE(full.provenance.complete());
  const std::int64_t families = full.provenance.families_total;
  ASSERT_GT(families, 2);

  opts.max_checkpoints = families / 2;
  opts.threads = 1;
  const core::TapResult a = core::auto_parallel(tg, opts);
  opts.threads = 4;
  const core::TapResult b = core::auto_parallel(tg, opts);

  // Both are anytime results that searched EXACTLY the first
  // `max_checkpoints` families (ordinal cutoffs are scheduling-free).
  for (const core::TapResult* r : {&a, &b}) {
    EXPECT_EQ(r->provenance.source, core::PlanSource::kAnytime);
    EXPECT_FALSE(r->provenance.complete());
    EXPECT_FALSE(r->provenance.deadline_hit);  // checkpoint, not clock
    EXPECT_EQ(r->provenance.families_searched, opts.max_checkpoints);
    EXPECT_EQ(r->provenance.families_total, families);
    EXPECT_TRUE(r->routed.valid);
  }

  // Byte-identical plan...
  EXPECT_EQ(core::plan_to_json(tg, a.best_plan),
            core::plan_to_json(tg, b.best_plan));
  EXPECT_EQ(a.cost.total(), b.cost.total());
  // ...and byte-identical report (provenance included).
  core::TapOptions ropts = opts;
  ropts.threads = 1;
  EXPECT_EQ(report::to_json(report::build_report(tg, a, ropts)),
            report::to_json(report::build_report(tg, b, ropts)));

  // The degraded plan is still cheaper-or-equal to the untouched DP
  // default, never worse than not searching at all.
  const core::TapResult none = [&] {
    core::TapOptions o = opts;
    o.max_checkpoints = 0;
    o.threads = 1;
    return core::auto_parallel(tg, o);
  }();
  EXPECT_TRUE(none.routed.valid);
  EXPECT_EQ(none.provenance.families_searched, 0);
  EXPECT_LE(a.cost.total(), none.cost.total());
  EXPECT_LE(full.cost.total(), a.cost.total());
}

TEST(Anytime, SweepCheckpointCancelIsByteIdenticalAcrossThreads) {
  Graph g = models::build_transformer(models::t5_with_layers(2));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();

  // Weighted family count == families_total of one fixed-mesh search (the
  // prune result does not depend on the mesh). The sweep stripes ordinals
  // with stride = families + 1, so a limit of exactly one stride lets the
  // first factorization finish and skips every other mesh.
  const std::int64_t families =
      core::auto_parallel(tg, opts).provenance.families_total;
  opts.max_checkpoints = families + 1;

  opts.threads = 1;
  const core::TapResult a = core::auto_parallel_best_mesh(tg, opts);
  opts.threads = 4;
  const core::TapResult b = core::auto_parallel_best_mesh(tg, opts);

  for (const core::TapResult* r : {&a, &b}) {
    EXPECT_EQ(r->provenance.source, core::PlanSource::kAnytime);
    EXPECT_EQ(r->provenance.meshes_searched, 1);
    EXPECT_GT(r->provenance.meshes_total, 1);
    EXPECT_TRUE(r->routed.valid);
  }
  EXPECT_EQ(core::plan_to_json(tg, a.best_plan),
            core::plan_to_json(tg, b.best_plan));
  EXPECT_EQ(a.provenance.families_searched, b.provenance.families_searched);
  EXPECT_EQ(a.provenance.families_total, b.provenance.families_total);
  EXPECT_EQ(a.cost.total(), b.cost.total());
}

// ---------------------------------------------------------------------------
// Deadline-bounded serving
// ---------------------------------------------------------------------------

TEST(Anytime, DeadlineFallbackReturnsWithinBudget) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();
  const core::TapResult full = core::auto_parallel(tg, opts);

  const std::uint64_t deadline0 = counter_value("service.deadline_hit");
  const std::uint64_t fallback0 = counter_value("service.fallback");

  service::ServiceOptions sopts;
  sopts.request_threads = 2;  // a real worker, so plan() actually waits
  sopts.search_override = [&](const service::PlanRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    return full;
  };
  service::PlannerService svc(sopts);

  core::TapOptions dopts = opts;
  dopts.deadline_ms = 30;
  const auto t0 = std::chrono::steady_clock::now();
  const core::TapResult r = svc.plan({&tg, dopts, false});  // must not throw
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // Back well before the 1000 ms search would have finished: budget plus
  // the documented grace (budget * 1.5 + 50 ms), not "eventually".
  EXPECT_LT(elapsed_ms, 700.0);
  EXPECT_EQ(r.provenance.source, core::PlanSource::kFallback);
  EXPECT_TRUE(r.provenance.deadline_hit);
  EXPECT_EQ(r.provenance.fallback_reason, "deadline");
  EXPECT_TRUE(r.routed.valid);
  EXPECT_GT(r.cost.total(), 0.0);

  EXPECT_EQ(svc.stats().deadline_hits, 1u);
  EXPECT_EQ(svc.stats().fallbacks, 1u);
  EXPECT_EQ(counter_value("service.deadline_hit"), deadline0 + 1);
  EXPECT_EQ(counter_value("service.fallback"), fallback0 + 1);
  // The service destructor drains the still-sleeping search.
}

TEST(Anytime, DeadlineSearchFailureDegradesToFallback) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);

  service::ServiceOptions sopts;
  sopts.request_threads = 1;
  sopts.search_override = [](const service::PlanRequest&) -> core::TapResult {
    throw std::runtime_error("backend exploded");
  };
  service::PlannerService svc(sopts);

  core::TapOptions opts = small_cluster_opts();
  opts.deadline_ms = 5000;
  const core::TapResult r = svc.plan({&tg, opts, false});  // must not throw
  EXPECT_EQ(r.provenance.source, core::PlanSource::kFallback);
  EXPECT_EQ(r.provenance.fallback_reason, "backend exploded");
  EXPECT_TRUE(r.routed.valid);
  EXPECT_EQ(svc.stats().fallbacks, 1u);

  // WITHOUT a deadline the same failure still propagates (the existing
  // service contract is untouched by the degradation path).
  core::TapOptions plain = small_cluster_opts();
  EXPECT_THROW(svc.plan({&tg, plain, true}), std::runtime_error);
}

TEST(Anytime, FallbackCostIsTheReportedCost) {
  // A fallback plan is costed with FinalizeCost's recipe, so the cost a
  // /plan response carries is the one its /explain report gives.
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);

  service::ServiceOptions sopts;
  sopts.request_threads = 1;
  sopts.search_override = [](const service::PlanRequest&) -> core::TapResult {
    throw std::runtime_error("backend exploded");
  };
  service::PlannerService svc(sopts);

  core::TapOptions opts = small_cluster_opts();
  opts.deadline_ms = 5000;
  for (bool sweep : {false, true}) {
    SCOPED_TRACE(sweep ? "mesh sweep" : "fixed mesh");
    const core::TapResult r = svc.plan({&tg, opts, sweep});
    ASSERT_EQ(r.provenance.source, core::PlanSource::kFallback);
    ASSERT_GT(r.cost.overlappable_comm_s, 0.0);
    const report::PlanReport rep = report::build_report(tg, r, opts);
    EXPECT_EQ(r.cost.forward_comm_s, rep.cost.forward_comm_s);
    EXPECT_EQ(r.cost.backward_comm_s, rep.cost.backward_comm_s);
    EXPECT_EQ(r.cost.overlappable_comm_s, rep.cost.overlappable_comm_s);
    EXPECT_EQ(r.cost.comm_bytes, rep.cost.comm_bytes);
  }
}

TEST(Anytime, AnytimeResultsAreNeverCached) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);

  TempDir dir("nocache");
  service::ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  service::PlannerService svc(sopts);

  core::TapOptions opts = small_cluster_opts();
  opts.max_checkpoints = 0;       // degrade every search to the DP default
  opts.deadline_ms = 60000;       // deadline path, but the clock never trips
  const core::TapResult r1 = svc.plan({&tg, opts, false});
  EXPECT_EQ(r1.provenance.source, core::PlanSource::kAnytime);
  EXPECT_FALSE(r1.provenance.deadline_hit);
  EXPECT_EQ(svc.stats().deadline_hits, 0u);

  // A degraded plan must not be served back as if it were the real
  // answer: the repeat request searches again instead of hitting a cache.
  const core::TapResult r2 = svc.plan({&tg, opts, false});
  EXPECT_EQ(svc.stats().searches, 2u);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_EQ(core::plan_to_json(tg, r1.best_plan),
            core::plan_to_json(tg, r2.best_plan));

  // And nothing was persisted for either of them.
  service::PlannerService svc2(sopts);
  svc2.plan({&tg, opts, false});
  EXPECT_EQ(svc2.cache_stats().disk_hits, 0u);
}

TEST(Anytime, OverloadShedsOnlyNewSearches) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);

  const std::uint64_t shed0 = counter_value("service.shed");

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  service::ServiceOptions sopts;
  sopts.request_threads = 2;  // one worker
  sopts.max_pending = 1;
  sopts.search_override = [&, gate](const service::PlanRequest& req) {
    gate.wait();
    return core::auto_parallel(*req.tg, req.opts);
  };
  service::PlannerService svc(sopts);

  core::TapOptions opts_a = small_cluster_opts();
  core::TapOptions opts_b = small_cluster_opts();
  opts_b.num_shards = 4;
  opts_b.dp_replicas = 4;

  // First request fills the single pending slot.
  auto first = svc.submit({&tg, opts_a, false});
  // A second DISTINCT key is shed at the front door...
  EXPECT_THROW(svc.submit({&tg, opts_b, false}), service::OverloadedError);
  // ...but a duplicate of the in-flight key coalesces instead of shedding,
  // and plan() with a deadline turns the shed into a typed fallback.
  auto dup = svc.submit({&tg, opts_a, false});
  core::TapOptions opts_c = opts_b;
  opts_c.deadline_ms = 50;
  const core::TapResult degraded = svc.plan({&tg, opts_c, false});
  EXPECT_EQ(degraded.provenance.source, core::PlanSource::kFallback);
  EXPECT_EQ(degraded.provenance.fallback_reason, "overloaded");
  EXPECT_TRUE(degraded.routed.valid);

  release.set_value();
  EXPECT_TRUE(first.get().routed.valid);
  EXPECT_TRUE(dup.get().routed.valid);

  EXPECT_EQ(svc.stats().shed, 2u);  // the bare submit + the deadlined plan
  EXPECT_EQ(svc.stats().coalesced, 1u);
  EXPECT_EQ(svc.stats().searches, 1u);
  EXPECT_EQ(counter_value("service.shed"), shed0 + 2);

  // With the slot free again, the previously-shed key goes through.
  EXPECT_TRUE(svc.plan({&tg, opts_b, false}).routed.valid);
}

// ---------------------------------------------------------------------------
// Fault-injected disk tier: retries, quarantine, crash safety
// ---------------------------------------------------------------------------

TEST(Anytime, DiskRetriesAreCountedExactly) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();
  const service::PlanRequest req{&tg, opts, false};

  TempDir dir("retry");
  service::PlanCacheOptions copts;
  copts.disk_dir = dir.path;
  copts.io_retries = 2;
  copts.retry_backoff_ms = 0.0;

  // Seed the disk tier with a real record, fault-free.
  service::PlanKey key;
  {
    service::ServiceOptions sopts;
    sopts.cache.disk_dir = dir.path;
    sopts.request_threads = 1;
    service::PlannerService svc(sopts);
    svc.plan(req);
    key = svc.key_for(req);
  }

  const std::uint64_t retry0 = counter_value("cache.retry");

  // Every read attempt throws: io_retries=2 means 3 attempts and exactly
  // 2 counted retries, then the lookup degrades to a miss.
  {
    util::ScopedFaultInjector fault("cache.disk.read=throw:1");
    service::PlanCache cache(copts);
    EXPECT_FALSE(cache.lookup(key, tg).has_value());
    EXPECT_EQ(cache.stats().retries, 2u);
    EXPECT_EQ(cache.stats().disk_misses, 1u);
    EXPECT_EQ(cache.stats().disk_rejects, 0u);
    EXPECT_EQ(fault.injector().hits("cache.disk.read"), 3u);
    EXPECT_EQ(counter_value("cache.retry"), retry0 + 2);
  }

  // Seeded p=0.5 reads: the injected count is a pure function of
  // (seed, site, k), so the retry accounting is PREDICTED from the draw
  // sequence, not just observed: every throw before the last attempt
  // costs one retry, and the record is served iff an attempt survived.
  {
    util::ScopedFaultInjector fault("cache.disk.read=throw:0.5", 11);
    service::PlanCache cache(copts);
    const bool served = cache.lookup(key, tg).has_value();
    const std::uint64_t injected =
        fault.injector().injected("cache.disk.read");
    EXPECT_EQ(cache.stats().retries, std::min<std::uint64_t>(injected, 2));
    EXPECT_EQ(served, injected < 3u);  // budget is 3 attempts
  }

  // The un-faulted cache still serves the record (nothing was damaged).
  service::PlanCache cache(copts);
  EXPECT_TRUE(cache.lookup(key, tg).has_value());
}

TEST(Anytime, FailedWritesDegradeSilentlyAndAreRetried) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();
  const service::PlanRequest req{&tg, opts, false};

  TempDir dir("wfail");
  service::ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.cache.io_retries = 2;
  sopts.cache.retry_backoff_ms = 0.0;
  sopts.request_threads = 1;

  {
    util::ScopedFaultInjector fault("cache.disk.write=throw:1");
    service::PlannerService svc(sopts);
    const core::TapResult r = svc.plan(req);  // insert exhausts its retries
    EXPECT_TRUE(r.routed.valid);
    EXPECT_EQ(svc.cache_stats().retries, 2u);
    EXPECT_EQ(svc.cache_stats().disk_writes, 0u);
    // The memory tier is unaffected — the repeat request hits it.
    svc.plan(req);
    EXPECT_EQ(svc.stats().cache_hits, 1u);
  }

  // No record was ever published — the only debris is the torn temp file
  // (a fault mid-write models a killed process, so the tmp stays behind),
  // and it never shadows the real record name.
  std::size_t tmp_files = 0, record_files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().extension() == ".tmp")
      ++tmp_files;
    else
      ++record_files;
  }
  EXPECT_EQ(record_files, 0u);
  EXPECT_EQ(tmp_files, 1u);
}

TEST(Anytime, CorruptFileIsQuarantinedExactlyOnce) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();
  const service::PlanRequest req{&tg, opts, false};

  TempDir dir("quarantine");
  std::string file;
  {
    service::ServiceOptions sopts;
    sopts.cache.disk_dir = dir.path;
    sopts.request_threads = 1;
    service::PlannerService svc(sopts);
    svc.plan(req);
    file = svc.cache().disk_path(svc.key_for(req));
  }
  ASSERT_TRUE(fs::exists(file));
  {
    std::ofstream out(file, std::ios::trunc);
    out << "{ \"version\": 1, this is not a plan record";
  }

  const std::uint64_t quarantine0 = counter_value("cache.quarantined");

  service::ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  service::PlannerService svc(sopts);
  const service::PlanKey key = svc.key_for(req);

  // First lookup: rejected AND moved aside so it can never be re-parsed.
  EXPECT_FALSE(svc.cache().lookup(key, tg).has_value());
  EXPECT_EQ(svc.cache_stats().disk_rejects, 1u);
  EXPECT_EQ(svc.cache_stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(file));
  EXPECT_TRUE(fs::exists(file + ".quarantine"));
  EXPECT_EQ(counter_value("cache.quarantined"), quarantine0 + 1);

  // Second lookup: a clean miss — the quarantine happened ONCE.
  EXPECT_FALSE(svc.cache().lookup(key, tg).has_value());
  EXPECT_EQ(svc.cache_stats().quarantined, 1u);
  EXPECT_EQ(svc.cache_stats().disk_misses, 1u);

  // A full plan() re-searches and overwrites with a good record; the
  // quarantined copy stays aside for post-mortem.
  EXPECT_TRUE(svc.plan(req).routed.valid);
  EXPECT_TRUE(fs::exists(file));
  EXPECT_TRUE(fs::exists(file + ".quarantine"));
}

TEST(Anytime, CrashBetweenTempFileAndRenameIsCleanedUp) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();
  const service::PlanRequest req{&tg, opts, false};

  TempDir dir("crash");
  service::PlanCacheOptions copts;
  copts.disk_dir = dir.path;
  copts.io_retries = 0;  // one attempt: the "process died right here" model
  copts.retry_backoff_ms = 0.0;

  // Grab a real result to insert.
  service::PlanKey key;
  core::TapResult result;
  {
    service::ServiceOptions sopts;
    sopts.request_threads = 1;
    service::PlannerService svc(sopts);
    result = svc.plan(req);
    key = svc.key_for(req);
  }
  ASSERT_TRUE(result.provenance.complete());

  // Kill the writer in the crash window: temp file fully written, rename
  // never happens.
  {
    util::ScopedFaultInjector fault("cache.disk.rename=throw:1");
    service::PlanCache cache(copts);
    cache.insert(key, result, tg);
    EXPECT_EQ(cache.stats().disk_writes, 0u);
  }
  std::size_t tmp_files = 0, record_files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().extension() == ".tmp")
      ++tmp_files;
    else
      ++record_files;
  }
  EXPECT_EQ(tmp_files, 1u);  // the torn write IS left behind
  EXPECT_EQ(record_files, 0u);

  // The next cache over this directory sweeps the debris at construction
  // and treats the key as a plain miss — the partial file is never read.
  service::PlanCache cache(copts);
  EXPECT_FALSE(cache.lookup(key, tg).has_value());
  EXPECT_EQ(cache.stats().disk_misses, 1u);
  EXPECT_EQ(cache.stats().disk_rejects, 0u);
  for (const auto& e : fs::directory_iterator(dir.path)) {
    EXPECT_NE(e.path().extension(), ".tmp");
  }

  // And a clean insert over the swept directory works end to end.
  cache.insert(key, result, tg);
  EXPECT_TRUE(cache.lookup(key, tg).has_value());
}

// ---------------------------------------------------------------------------
// Soak: deadlines + faults + concurrency (the 300 s stress bucket)
// ---------------------------------------------------------------------------

TEST(AnytimeStress, DeadlineAndFaultHammer) {
  // Delay-only faults (the CI smoke spec shape) + tight deadlines + many
  // client threads: every plan() must come back valid — complete, anytime
  // or fallback — and never throw.
  Graph g = models::build_transformer(models::t5_with_layers(2));
  ir::TapGraph tg = ir::lower(g);

  TempDir dir("hammer");
  util::ScopedFaultInjector fault(
      "service.search=delay:3:0.5,cache.disk.read=delay:1:0.5,"
      "cache.disk.write=delay:1:0.5",
      7);

  service::ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 4;
  service::PlannerService svc(sopts);

  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        core::TapOptions opts = small_cluster_opts();
        // A few distinct keys, revisited, under rotating budgets.
        opts.num_shards = (c + round) % 2 == 0 ? 8 : 4;
        opts.dp_replicas = 16 / opts.num_shards;
        opts.deadline_ms = 20 + 30 * (round % 3);
        try {
          const core::TapResult r = svc.plan({&tg, opts, false});
          if (!r.routed.valid) ++failures;
        } catch (...) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.stats().requests,
            static_cast<std::uint64_t>(kClients * kRounds));
}

}  // namespace
}  // namespace tap
