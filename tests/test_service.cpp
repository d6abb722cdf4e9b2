// PlannerService / PlanCache / fingerprint tests — the acceptance criteria
// of the service subsystem: cache hits are bit-identical to cold searches,
// duplicate concurrent requests single-flight into one search, and stale
// or damaged disk records are rejected, never misinterpreted.
#include "service/planner_service.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "core/serialize.h"
#include "core/tap.h"
#include "cost/cost_model.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "report/report.h"
#include "service/wire.h"
#include "sharding/routing.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/json.h"

namespace tap::service {
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

/// Fresh per-test scratch directory for the disk tier.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("tap_service_test_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A disk payload's first line: the /plan response it stores.
std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

/// One record of a disk-tier log: its header's key hex and its payload.
struct LogRecord {
  std::string key_hex;
  std::string payload;
};

/// The records of the log at `path`, in order. Fails the test on a frame
/// that does not read "<key hex> <payload bytes>\n<payload>\n".
std::vector<LogRecord> log_records(const std::string& path) {
  const std::string text = read_file(path);
  std::vector<LogRecord> records;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t space = text.find(' ', pos);
    EXPECT_LT(space, eol);
    if (eol == std::string::npos || space >= eol) break;
    const std::size_t size =
        std::stoull(text.substr(space + 1, eol - space - 1));
    EXPECT_LE(eol + 1 + size + 1, text.size());
    EXPECT_EQ(text[eol + 1 + size], '\n');
    LogRecord r{text.substr(pos, space - pos), text.substr(eol + 1, size)};
    records.push_back(std::move(r));
    pos = eol + 1 + size + 1;
  }
  return records;
}

/// The payload of `key`'s last record in the log at `path`, or "".
std::string logged_payload(const std::string& path, const PlanKey& key) {
  std::string payload;
  for (const LogRecord& r : log_records(path))
    if (r.key_hex == key.to_hex()) payload = r.payload;
  return payload;
}

/// Appends a record of `payload` under `key`, as an insert would.
void append_record(const std::string& path, const PlanKey& key,
                   const std::string& payload) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << plan_log_record(key, payload);
}

void expect_results_identical(const core::TapResult& a,
                              const core::TapResult& b) {
  // Sharding decisions.
  EXPECT_EQ(a.best_plan.num_shards, b.best_plan.num_shards);
  EXPECT_EQ(a.best_plan.dp_replicas, b.best_plan.dp_replicas);
  EXPECT_EQ(a.best_plan.choice, b.best_plan.choice);
  // Cost, bit for bit.
  EXPECT_EQ(a.cost.forward_comm_s, b.cost.forward_comm_s);
  EXPECT_EQ(a.cost.backward_comm_s, b.cost.backward_comm_s);
  EXPECT_EQ(a.cost.overlappable_comm_s, b.cost.overlappable_comm_s);
  EXPECT_EQ(a.cost.comm_bytes, b.cost.comm_bytes);
  // Search statistics.
  EXPECT_EQ(a.candidate_plans, b.candidate_plans);
  EXPECT_EQ(a.valid_plans, b.valid_plans);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.cost_queries, b.cost_queries);
  // Routing (derived, but cheap to pin down).
  EXPECT_TRUE(a.routed.valid);
  EXPECT_TRUE(b.routed.valid);
  EXPECT_EQ(a.routed.pattern_index, b.routed.pattern_index);
  EXPECT_EQ(a.routed.total_comm_bytes(), b.routed.total_comm_bytes());
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, ZooGraphsAllDistinct) {
  // The whole Table 1 zoo — every architecture must land on its own
  // fingerprint (the collision smoke test for the 128-bit hash).
  std::set<std::string> hexes;
  std::size_t count = 0;
  for (const auto& entry : models::table1_zoo()) {
    Graph g = entry.build();
    ir::TapGraph tg = ir::lower(g);
    PlanKey key = make_plan_key(tg, core::TapOptions{}, false);
    hexes.insert(key.to_hex());
    ++count;
  }
  EXPECT_EQ(hexes.size(), count);
  EXPECT_GE(count, 8u);
}

TEST(Fingerprint, DeterministicAcrossRebuilds) {
  Graph a = models::build_transformer(models::t5_with_layers(2));
  Graph b = models::build_transformer(models::t5_with_layers(2));
  EXPECT_EQ(graph_fingerprint(ir::lower(a)), graph_fingerprint(ir::lower(b)));
}

TEST(Fingerprint, IgnoresModelNameButSeesStructure) {
  models::TransformerConfig cfg = models::t5_with_layers(2);
  Graph original = models::build_transformer(cfg);
  cfg.name = "renamed_t5";
  Graph renamed = models::build_transformer(cfg);
  // Same architecture under a different root name: same planning problem.
  EXPECT_EQ(graph_fingerprint(ir::lower(original)),
            graph_fingerprint(ir::lower(renamed)));

  cfg.d_ff *= 2;  // a real structural change must be seen
  Graph wider = models::build_transformer(cfg);
  EXPECT_NE(graph_fingerprint(ir::lower(renamed)),
            graph_fingerprint(ir::lower(wider)));

  models::TransformerConfig deeper = models::t5_with_layers(3);
  EXPECT_NE(graph_fingerprint(ir::lower(original)),
            graph_fingerprint(
                ir::lower(models::build_transformer(deeper))));
}

TEST(Fingerprint, OptionsKeyIgnoresThreadsButSeesMesh) {
  core::TapOptions a = small_cluster_opts();
  core::TapOptions b = a;
  b.threads = 7;  // thread count never changes the answer
  EXPECT_EQ(options_fingerprint(a), options_fingerprint(b));

  b.num_shards = 4;
  EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
  b = a;
  b.cluster.inter_bw *= 2.0;
  EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
  b = a;
  b.prune.min_duplicate += 1;
  EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
}

TEST(Fingerprint, SweepKeyNormalizesRequestedMesh) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions a = small_cluster_opts();
  core::TapOptions b = a;
  b.num_shards = 4;  // ignored by the sweep -> same key
  b.dp_replicas = 4;
  EXPECT_EQ(make_plan_key(tg, a, true), make_plan_key(tg, b, true));
  EXPECT_NE(make_plan_key(tg, a, false), make_plan_key(tg, b, false));
  // Fixed-mesh and sweep requests never share a key.
  EXPECT_NE(make_plan_key(tg, a, false), make_plan_key(tg, a, true));
}

TEST(Fingerprint, FamilyFingerprintsShareAcrossDepths) {
  // The T5 encoder block of a 2-layer build must fingerprint identically
  // to the same block inside a 3-layer build — that overlap is what the
  // family cache monetizes.
  Graph g2 = models::build_transformer(models::t5_with_layers(2));
  Graph g3 = models::build_transformer(models::t5_with_layers(3));
  ir::TapGraph tg2 = ir::lower(g2);
  ir::TapGraph tg3 = ir::lower(g3);
  pruning::PruneResult p2 = pruning::prune_graph(tg2);
  pruning::PruneResult p3 = pruning::prune_graph(tg3);

  std::set<Fingerprint> fp2, fp3;
  for (const auto& fam : p2.families)
    fp2.insert(family_fingerprint(tg2, fam));
  for (const auto& fam : p3.families)
    fp3.insert(family_fingerprint(tg3, fam));
  // Distinct families within one graph fingerprint distinctly...
  EXPECT_EQ(fp2.size(), p2.families.size());
  EXPECT_EQ(fp3.size(), p3.families.size());
  // ...and the depth-independent block families overlap across graphs.
  std::size_t shared = 0;
  for (const Fingerprint& f : fp2) shared += fp3.count(f);
  EXPECT_GT(shared, 0u);
}

// ---------------------------------------------------------------------------
// Bit-identical serving
// ---------------------------------------------------------------------------

struct ZooCase {
  const char* label;
  std::function<Graph()> build;
  bool sweep = false;
};

class ServiceIdentity : public ::testing::TestWithParam<int> {};

const ZooCase kIdentityCases[] = {
    {"t5_2l", [] { return models::build_transformer(models::t5_with_layers(2)); },
     false},
    {"t5_2l_sweep",
     [] { return models::build_transformer(models::t5_with_layers(2)); },
     true},
    {"moe_2l",
     [] {
       models::MoeConfig cfg = models::widenet();
       cfg.num_layers = 2;
       return models::build_moe_transformer(cfg);
     },
     false},
    {"resnet50",
     [] { return models::build_resnet(models::resnet50()); }, false},
};

TEST_P(ServiceIdentity, CachedPlanIsBitIdenticalToColdSearch) {
  const ZooCase& c = kIdentityCases[static_cast<std::size_t>(GetParam())];
  Graph g = c.build();
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();

  const core::TapResult cold =
      c.sweep ? core::auto_parallel_best_mesh(tg, opts)
              : core::auto_parallel(tg, opts);

  TempDir dir(std::string("identity_") + c.label);
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;

  const PlanRequest req{&tg, opts, c.sweep};
  core::TapResult fresh;
  {
    PlannerService svc(sopts);
    fresh = svc.plan(req);
    const core::TapResult hit = svc.plan(req);  // memory tier

    expect_results_identical(cold, fresh);
    expect_results_identical(cold, hit);
    EXPECT_EQ(svc.stats().searches, 1u);
    EXPECT_EQ(svc.stats().cache_hits, 1u);
    EXPECT_GE(svc.cache_stats().memory_hits, 1u);
  }

  // Disk tier: the key's record starts with the response bytes, and a
  // brand-new service over the same directory serves it, still
  // bit-identical, with the search's own search_seconds and (having run
  // no passes) no pass timings.
  PlannerService svc2(sopts);
  const PlanKey key = svc2.key_for(req);
  EXPECT_EQ(first_line(logged_payload(svc2.cache().log_path(), key)),
            plan_response_json(tg, key, fresh));
  const core::TapResult disk_hit = svc2.plan(req);
  expect_results_identical(cold, disk_hit);
  EXPECT_EQ(svc2.stats().searches, 0u);
  EXPECT_EQ(svc2.cache_stats().disk_hits, 1u);
  ASSERT_FALSE(fresh.pass_timings.empty());
  EXPECT_TRUE(disk_hit.pass_timings.empty());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(disk_hit.search_seconds),
            std::bit_cast<std::uint64_t>(fresh.search_seconds));
}

INSTANTIATE_TEST_SUITE_P(Zoo, ServiceIdentity, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kIdentityCases[static_cast<std::size_t>(
                                                     info.param)]
                               .label;
                         });

/// Every routed event's reason text, hashed in event order.
std::uint64_t reason_digest(const ir::TapGraph& tg,
                            const sharding::RoutedPlan& routed) {
  const sharding::PatternTable table(tg, routed.num_shards, routed.dp_replicas);
  std::uint64_t h = util::kFnvOffset;
  for (const sharding::CommEvent& e : routed.comms)
    h = util::hash_str(sharding::comm_reason(table, routed, e), h);
  return h;
}

/// Everything a routed event carries.
auto event_fields(const sharding::CommEvent& e) {
  return std::tie(e.kind, e.bytes, e.count, e.phase, e.group, e.cross_node,
                  e.overlappable, e.node, e.src, e.from_spec, e.to_spec,
                  e.why);
}

void expect_same_routing(const ir::TapGraph& tg, const sharding::RoutedPlan& a,
                         const sharding::RoutedPlan& b) {
  ASSERT_TRUE(a.valid && b.valid);
  EXPECT_EQ(a.dp_replicas, b.dp_replicas);
  EXPECT_EQ(a.pattern_index, b.pattern_index);
  EXPECT_TRUE(a.output_spec == b.output_spec);
  ASSERT_EQ(a.comms.size(), b.comms.size());
  for (std::size_t i = 0; i < a.comms.size(); ++i)
    EXPECT_TRUE(event_fields(a.comms[i]) == event_fields(b.comms[i])) << i;
  EXPECT_EQ(a.edge_conversions.size(), b.edge_conversions.size());
  EXPECT_EQ(reason_digest(tg, a), reason_digest(tg, b));
}

TEST(PlannerService, HitsRouteWithTheSearchedCatalogAtEveryMesh) {
  // A hit re-routes the stored plan with the pattern catalog of the
  // plan's own mesh, the one the search used, so a memory or disk hit
  // reports the cold search's events and reason texts at every 16-GPU
  // mesh of the zoo (at dp > 1 the dp = 1 catalog can differ).
  int meshes = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    for (int tp : {1, 2, 4, 8, 16}) {
      SCOPED_TRACE("tp=" + std::to_string(tp));
      core::TapOptions opts = small_cluster_opts();
      opts.num_shards = tp;
      opts.dp_replicas = 16 / tp;
      const core::TapResult cold = core::auto_parallel(tg, opts);
      ASSERT_TRUE(cold.routed.valid);

      TempDir dir("hit_routing_" + std::to_string(meshes));
      ServiceOptions sopts;
      sopts.cache.disk_dir = dir.path;
      sopts.request_threads = 1;
      const PlanRequest req{&tg, opts, false};
      core::TapResult memory_hit;
      {
        PlannerService svc(sopts);
        svc.plan(req);
        memory_hit = svc.plan(req);
        EXPECT_EQ(svc.stats().searches, 1u);
        EXPECT_EQ(svc.cache_stats().memory_hits, 1u);
      }
      PlannerService svc2(sopts);
      const core::TapResult disk_hit = svc2.plan(req);
      EXPECT_EQ(svc2.stats().searches, 0u);
      EXPECT_EQ(svc2.cache_stats().disk_hits, 1u);

      expect_same_routing(tg, cold.routed, memory_hit.routed);
      expect_same_routing(tg, cold.routed, disk_hit.routed);
      ++meshes;
    }
  }
  EXPECT_EQ(meshes, 5 * static_cast<int>(models::table1_zoo().size()));
}

/// True when the two costs hold the same doubles, bit for bit, and bytes.
bool same_cost(const cost::PlanCost& a, const cost::PlanCost& b) {
  auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  return bits(a.forward_comm_s) == bits(b.forward_comm_s) &&
         bits(a.backward_comm_s) == bits(b.backward_comm_s) &&
         bits(a.overlappable_comm_s) == bits(b.overlappable_comm_s) &&
         a.comm_bytes == b.comm_bytes;
}

TEST(PlannerService, SavedAndCachedPlansReadTheSearchedCatalogAtEverySweep) {
  // Every table1_zoo() model swept over 16 and 32 GPUs. A saved plan,
  // reloaded and routed without a table (route_plan builds the table of
  // the plan's own mesh), gives the cold search's events and reason texts,
  // and FinalizeCost's recipe gives its cost bit for bit. A memory hit's
  // and a disk hit's routing and /explain report equal the cold search's.
  int cases = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    for (int nodes : {2, 4}) {
      core::TapOptions opts;
      opts.cluster = cost::ClusterSpec::v100_cluster(nodes);
      opts.threads = 1;
      const int world = opts.cluster.world();
      SCOPED_TRACE(entry.model + " on " + std::to_string(world) + " GPUs");
      TempDir dir("round_trip_" + std::to_string(cases));
      ServiceOptions sopts;
      sopts.cache.disk_dir = dir.path;
      sopts.request_threads = 1;
      const PlanRequest req{&tg, opts, /*sweep_mesh=*/true};
      std::optional<PlannerService> svc(std::in_place, sopts);
      const core::TapResult cold = svc->plan(req);
      ASSERT_TRUE(cold.routed.valid);

      const sharding::ShardingPlan reloaded = core::plan_from_json(
          tg, core::plan_to_json(tg, cold.best_plan));
      const sharding::RoutedPlan routed = sharding::route_plan(tg, reloaded);
      expect_same_routing(tg, cold.routed, routed);
      const cost::PlanCost c = cost::comm_cost(
          routed, opts.cluster,
          cost::backward_compute_window(tg, routed, nullptr, opts.cluster));
      EXPECT_TRUE(same_cost(c, cold.cost));

      const std::string cold_report = report::to_json(
          report::build_report(tg, cold, opts, sopts.report));
      expect_same_routing(tg, cold.routed, svc->plan(req).routed);
      EXPECT_EQ(report::to_json(*svc->explain(req)), cold_report);
      EXPECT_EQ(svc->stats().searches, 1u);
      svc.reset();  // the log's one writer closes before the next opens
      PlannerService svc2(sopts);
      expect_same_routing(tg, cold.routed, svc2.plan(req).routed);
      EXPECT_EQ(svc2.cache_stats().disk_hits, 1u);
      EXPECT_EQ(report::to_json(*svc2.explain(req)), cold_report);
      EXPECT_EQ(svc2.stats().searches, 0u);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 2 * static_cast<int>(models::table1_zoo().size()));
}

TEST(PlannerService, RenamedModelServedFromCache) {
  // The memory tier serves a structurally equal graph with different node
  // names: it shares the PlanKey, and the record holds no names.
  models::TransformerConfig cfg = models::t5_with_layers(2);
  Graph a = models::build_transformer(cfg);
  cfg.name = "same_shape_other_name";
  Graph b = models::build_transformer(cfg);
  ir::TapGraph ta = ir::lower(a), tb = ir::lower(b);
  core::TapOptions opts = small_cluster_opts();

  PlannerService svc;
  const core::TapResult ra = svc.plan({&ta, opts, false});
  const core::TapResult rb = svc.plan({&tb, opts, false});
  EXPECT_EQ(svc.stats().searches, 1u);  // second request was a cache hit
  expect_results_identical(ra, rb);
}

// ---------------------------------------------------------------------------
// Concurrency: single-flight and stress
// ---------------------------------------------------------------------------

TEST(PlannerService, CoalescesConcurrentDuplicates) {
  // Deterministic single-flight proof: hold the (overridden) search open
  // on a latch until K duplicate requests are all submitted, then release
  // it and check one search served everyone.
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int searches = 0;

  ServiceOptions sopts;
  sopts.request_threads = 2;
  sopts.search_override = [&](const PlanRequest& req) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++searches;
      cv.wait(lock, [&] { return release; });
    }
    return core::auto_parallel(*req.tg, req.opts);
  };
  PlannerService svc(sopts);

  constexpr int kDuplicates = 6;
  std::vector<std::shared_future<core::TapResult>> futs;
  for (int i = 0; i < kDuplicates; ++i)
    futs.push_back(svc.submit({&tg, opts, false}));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& f : futs) EXPECT_TRUE(f.get().routed.valid);

  EXPECT_EQ(searches, 1);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(kDuplicates));
  EXPECT_EQ(st.searches, 1u);
  EXPECT_EQ(st.coalesced + st.cache_hits,
            static_cast<std::uint64_t>(kDuplicates - 1));
}

TEST(PlannerService, ConcurrentStressSearchesEachKeyOnce) {
  // N client threads hammer the service with a repeating mix of models;
  // the deterministic invariant is searches == distinct keys, and every
  // response must match its cold reference exactly.
  std::vector<Graph> graphs;
  graphs.push_back(models::build_transformer(models::t5_with_layers(1)));
  graphs.push_back(models::build_transformer(models::t5_with_layers(2)));
  {
    models::MoeConfig cfg = models::widenet();
    cfg.num_layers = 1;
    graphs.push_back(models::build_moe_transformer(cfg));
  }
  std::vector<ir::TapGraph> tgs;
  tgs.reserve(graphs.size());
  for (Graph& g : graphs) tgs.push_back(ir::lower(g));

  core::TapOptions opts = small_cluster_opts();
  std::vector<core::TapResult> cold;
  cold.reserve(tgs.size());
  for (const ir::TapGraph& tg : tgs)
    cold.push_back(core::auto_parallel(tg, opts));

  ServiceOptions sopts;
  sopts.request_threads = 4;
  PlannerService svc(sopts);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 9;
  std::vector<std::vector<core::TapResult>> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::size_t m =
            static_cast<std::size_t>(c + r) % tgs.size();
        results[static_cast<std::size_t>(c)].push_back(
            svc.plan({&tgs[m], opts, false}));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(st.searches, tgs.size());  // one per distinct key, ever
  EXPECT_EQ(st.cache_hits + st.coalesced + st.searches, st.requests);

  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const std::size_t m = static_cast<std::size_t>(c + r) % tgs.size();
      expect_results_identical(cold[m],
                               results[static_cast<std::size_t>(c)]
                                      [static_cast<std::size_t>(r)]);
    }
  }
}

TEST(PlannerService, SearchFailurePropagatesAndDoesNotPoison) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();

  int calls = 0;
  ServiceOptions sopts;
  sopts.request_threads = 1;
  sopts.search_override = [&](const PlanRequest& req) -> core::TapResult {
    if (++calls == 1) throw CheckError("injected search failure");
    return core::auto_parallel(*req.tg, req.opts);
  };
  PlannerService svc(sopts);

  EXPECT_THROW(svc.plan({&tg, opts, false}), CheckError);
  // The key is no longer in flight and was not cached: a retry re-searches
  // and succeeds.
  const core::TapResult ok = svc.plan({&tg, opts, false});
  EXPECT_TRUE(ok.routed.valid);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(svc.stats().searches, 2u);
}

TEST(PlannerService, MemoryHitIsNotHeldBehindAStalledDiskRead) {
  // A disk hit reads and validates a log record outside the service and
  // cache mutexes, so a memory hit for another key issued while that read
  // stalls is served at once instead of waiting out the stall.
  Graph ga = models::build_transformer(models::t5_with_layers(2));
  Graph gb = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph ta = ir::lower(ga), tb = ir::lower(gb);
  core::TapOptions opts = small_cluster_opts();

  TempDir dir("stall");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  {
    PlannerService seed(sopts);
    seed.plan({&ta, opts, false});  // A's record, on disk only below
  }
  PlannerService svc(sopts);
  svc.plan({&tb, opts, false});  // B, searched: in the memory tier

  util::ScopedFaultInjector fault("cache.disk.read=delay:500");
  PlanTelemetry stalled;
  std::thread reader([&] {
    EXPECT_TRUE(svc.plan({&ta, opts, false}, &stalled).routed.valid);
  });
  while (fault.injector().hits("cache.disk.read") == 0)
    std::this_thread::yield();

  PlanTelemetry quick;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(svc.plan({&tb, opts, false}, &quick).routed.valid);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  reader.join();

  EXPECT_LT(ms, 100.0);
  EXPECT_EQ(quick.served, PlanTelemetry::Served::kMemoryHit);
  EXPECT_EQ(stalled.served, PlanTelemetry::Served::kDiskHit);
  EXPECT_EQ(svc.stats().searches, 1u);  // only B's first request
}

TEST(PlanCache, MemoryTierHoldsExactlyCapacityEvictingLeastRecentlyUsed) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  PlanCacheOptions copts;
  copts.capacity = 2;
  PlanCache cache(copts);
  std::vector<PlanKey> keys(12);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i].graph.lo = i;
  const core::TapResult result;

  cache.insert(keys[0], result, tg);
  cache.insert(keys[1], result, tg);
  ASSERT_TRUE(cache.lookup(keys[0], tg).has_value());  // 1 is now the LRU
  cache.insert(keys[2], result, tg);
  EXPECT_TRUE(cache.lookup(keys[0], tg).has_value());
  EXPECT_FALSE(cache.lookup(keys[1], tg).has_value());
  EXPECT_TRUE(cache.lookup(keys[2], tg).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);

  for (const PlanKey& key : keys) cache.insert(key, result, tg);
  std::size_t held = 0;
  for (const PlanKey& key : keys) held += cache.lookup(key, tg) ? 1 : 0;
  EXPECT_EQ(held, 2u);
  EXPECT_TRUE(cache.lookup(keys[10], tg).has_value());
  EXPECT_TRUE(cache.lookup(keys[11], tg).has_value());
}

// ---------------------------------------------------------------------------
// Disk tier hygiene
// ---------------------------------------------------------------------------

TEST(PlannerService, CorruptedDiskFileIsRejectedAndResearched) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();
  const PlanRequest req{&tg, opts, false};
  const core::TapResult cold = core::auto_parallel(tg, opts);

  TempDir dir("corrupt");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;

  std::string log;
  {
    PlannerService svc(sopts);
    svc.plan(req);
    log = svc.cache().log_path();
  }
  const PlanKey key = make_plan_key(tg, opts, false);
  ASSERT_FALSE(logged_payload(log, key).empty());
  // The key's last record now holds garbage.
  append_record(log, key,
                "{ \"version\": 1, garbage that is not a plan record");

  {
    PlannerService svc(sopts);
    const core::TapResult recovered = svc.plan(req);
    expect_results_identical(cold, recovered);
    EXPECT_EQ(svc.cache_stats().disk_rejects, 1u);
    EXPECT_EQ(svc.stats().searches, 1u);  // re-searched, not served garbage
  }
  // The re-search appended a good record that supersedes the damaged one.
  PlannerService svc3(sopts);
  expect_results_identical(cold, svc3.plan(req));
  EXPECT_EQ(svc3.stats().searches, 0u);
}

TEST(PlannerService, VersionMismatchedDiskFileIsRejected) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();

  TempDir dir("version");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;

  std::string log;
  {
    PlannerService svc(sopts);
    svc.plan({&tg, opts, false});
    log = svc.cache().log_path();
  }
  // Re-log the valid payload claiming a future format version.
  const PlanKey key = make_plan_key(tg, opts, false);
  std::string payload = logged_payload(log, key);
  const std::string vkey =
      "\"version\":" + std::to_string(kPlanResponseVersion);
  const auto pos = payload.find(vkey);
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos, vkey.size(), "\"version\":999");
  append_record(log, key, payload);

  PlannerService svc(sopts);
  const core::TapResult r = svc.plan({&tg, opts, false});
  EXPECT_TRUE(r.routed.valid);
  EXPECT_EQ(svc.cache_stats().disk_rejects, 1u);
  EXPECT_EQ(svc.stats().searches, 1u);
}

TEST(PlannerService, VersionOneDiskRecordIsQuarantinedAndRewritten) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();
  const PlanRequest req{&tg, opts, false};

  TempDir dir("version1");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;

  std::string log;
  {
    PlannerService svc(sopts);
    svc.plan(req);
    log = svc.cache().log_path();
  }
  // A record as the version-1 writer spelled it.
  const PlanKey key = make_plan_key(tg, opts, false);
  const std::string v1 =
      "{\n  \"version\": 1,\n  \"mesh\": [2, 8],\n  \"choice\": [],\n"
      "  \"cost\": [0, 0, 0, 0],\n  \"stats\": [0, 0, 0, 0],\n"
      "  \"timings\": [],\n  \"search_seconds\": 0\n}\n";
  append_record(log, key, v1);
  {
    PlannerService svc(sopts);
    EXPECT_TRUE(svc.plan(req).routed.valid);
    EXPECT_EQ(svc.cache_stats().disk_rejects, 1u);
    EXPECT_EQ(svc.cache_stats().quarantined, 1u);
    EXPECT_EQ(svc.stats().searches, 1u);
  }
  // The version-1 bytes stay in the log for post-mortem, superseded by
  // the re-search's record.
  const std::vector<LogRecord> records = log_records(log);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].payload, v1);
  EXPECT_EQ(records[2].key_hex, key.to_hex());
  const util::JsonValue response =
      util::JsonValue::parse(first_line(records[2].payload));
  EXPECT_EQ(response.members().front().first, "version");
  EXPECT_EQ(response.at("version").as_int(), kPlanResponseVersion);

  // The rewritten record serves the next process from disk.
  PlannerService svc(sopts);
  EXPECT_TRUE(svc.plan(req).routed.valid);
  EXPECT_EQ(svc.cache_stats().disk_hits, 1u);
  EXPECT_EQ(svc.stats().searches, 0u);
}

TEST(PlannerService, ParentFormatDiskRecordIsQuarantinedAndRewritten) {
  // A version-4 positional record, the disk format before the tier stored
  // /plan responses, fails the response's version-first check: it is
  // quarantined, the key is re-searched, and the log gains a record of
  // the cold result's response bytes.
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = small_cluster_opts();
  const PlanRequest req{&tg, opts, false};
  const core::TapResult cold = core::auto_parallel(tg, opts);

  TempDir dir("version4");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  const PlanKey key = make_plan_key(tg, opts, false);
  const std::string log = (fs::path(dir.path) / "plans.log").string();
  std::string choice = "0";
  for (std::size_t i = 1; i < tg.num_nodes(); ++i) choice += ",0";
  std::ostringstream v4;
  v4 << "{\"version\":4,\"mesh\":[2,8],\"choice\":[" << choice
     << "],\"cost\":[0,0,0,0],\"stats\":[0,0,0,0],\"timings\":[],"
        "\"search_seconds\":0}";
  fs::create_directories(dir.path);
  append_record(log, key, v4.str());

  PlannerService svc(sopts);
  EXPECT_EQ(svc.cache().log_path(), log);
  expect_results_identical(cold, svc.plan(req));
  EXPECT_EQ(svc.cache_stats().disk_rejects, 1u);
  EXPECT_EQ(svc.cache_stats().quarantined, 1u);
  EXPECT_EQ(svc.stats().searches, 1u);
  const std::vector<LogRecord> records = log_records(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, v4.str());
  EXPECT_EQ(first_line(records[1].payload), plan_response_json(tg, key, cold));
}

TEST(PlannerService, DiskFileUnderAnotherKeysNameIsRejected) {
  // One graph at two meshes: the 2x8 document resolves against the graph,
  // so only its "key" tells it from a 1x16 document.
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  const core::TapOptions a = small_cluster_opts();
  core::TapOptions b = a;
  b.dp_replicas = 1;
  b.num_shards = 16;
  const PlanRequest req_a{&tg, a, false}, req_b{&tg, b, false};
  const core::TapResult cold_b = core::auto_parallel(tg, b);

  TempDir dir("other_key");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  std::string log;
  {
    PlannerService svc(sopts);
    svc.plan(req_a);
    log = svc.cache().log_path();
  }
  const PlanKey key_a = make_plan_key(tg, a, false);
  const PlanKey key_b = make_plan_key(tg, b, false);
  const std::string copied = logged_payload(log, key_a);
  append_record(log, key_b, copied);
  EXPECT_NO_THROW(disk_file_from_json(tg, key_a, copied));
  EXPECT_THROW(disk_file_from_json(tg, key_b, copied), CheckError);

  PlannerService svc2(sopts);
  expect_results_identical(cold_b, svc2.plan(req_b));
  EXPECT_EQ(svc2.cache_stats().disk_rejects, 1u);
  EXPECT_EQ(svc2.stats().searches, 1u);
}

TEST(PlannerService, RenamedTwinReadFromDiskIsResearched) {
  // A disk record names GraphNodes, so a renamed structural twin (same
  // PlanKey) cannot resolve it: the record is rejected, the twin is
  // re-searched, and the superseding record serves the twin from disk.
  models::TransformerConfig cfg = models::t5_with_layers(2);
  Graph a = models::build_transformer(cfg);
  cfg.name = "same_shape_other_name";
  Graph b = models::build_transformer(cfg);
  ir::TapGraph ta = ir::lower(a), tb = ir::lower(b);
  const core::TapOptions opts = small_cluster_opts();
  const PlanRequest req_a{&ta, opts, false}, req_b{&tb, opts, false};
  const core::TapResult cold_b = core::auto_parallel(tb, opts);

  TempDir dir("twin");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  {
    PlannerService svc(sopts);
    svc.plan(req_a);
    ASSERT_EQ(svc.key_for(req_a), svc.key_for(req_b));
  }
  {
    PlannerService svc(sopts);
    expect_results_identical(cold_b, svc.plan(req_b));
    EXPECT_EQ(svc.cache_stats().disk_rejects, 1u);
    EXPECT_EQ(svc.stats().searches, 1u);
  }
  PlannerService svc(sopts);
  expect_results_identical(cold_b, svc.plan(req_b));
  EXPECT_EQ(svc.cache_stats().disk_hits, 1u);
  EXPECT_EQ(svc.stats().searches, 0u);
}

/// T5-1L at the three fixed 16-GPU meshes 2x8, 1x16 and 4x4, then the
/// mesh sweep: four keys of one graph.
std::vector<PlanRequest> four_requests(const ir::TapGraph& tg) {
  std::vector<PlanRequest> reqs;
  for (int tp : {8, 16, 4}) {
    core::TapOptions opts = small_cluster_opts();
    opts.num_shards = tp;
    opts.dp_replicas = 16 / tp;
    reqs.push_back({&tg, opts, false});
  }
  reqs.push_back({&tg, small_cluster_opts(), true});
  return reqs;
}

core::TapResult cold_search(const PlanRequest& req) {
  return req.sweep_mesh ? core::auto_parallel_best_mesh(*req.tg, req.opts)
                        : core::auto_parallel(*req.tg, req.opts);
}

TEST(PlannerService, EveryLoggedKeyIsADiskHitAfterReopen) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  const ir::TapGraph tg = ir::lower(g);
  const std::vector<PlanRequest> reqs = four_requests(tg);

  TempDir dir("reopen");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  std::vector<core::TapResult> searched;
  {
    PlannerService svc(sopts);
    for (const PlanRequest& req : reqs) searched.push_back(svc.plan(req));
    EXPECT_EQ(svc.cache_stats().disk_writes, reqs.size());
    EXPECT_EQ(log_records(svc.cache().log_path()).size(), reqs.size());
  }
  PlannerService svc(sopts);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(i);
    const core::TapResult hit = svc.plan(reqs[i]);
    expect_results_identical(cold_search(reqs[i]), hit);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(hit.search_seconds),
              std::bit_cast<std::uint64_t>(searched[i].search_seconds));
  }
  EXPECT_EQ(svc.cache_stats().disk_hits, reqs.size());
  EXPECT_EQ(svc.stats().searches, 0u);
}

TEST(PlannerService, TornLogTailIsCutAndItsKeyResearched) {
  // A crash mid-append leaves the last record short. The next open cuts
  // it off: its key is a miss and is re-searched, and every earlier key
  // still hits.
  Graph g = models::build_transformer(models::t5_with_layers(1));
  const ir::TapGraph tg = ir::lower(g);
  const std::vector<PlanRequest> reqs = four_requests(tg);

  TempDir dir("torn");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  std::string log;
  {
    PlannerService svc(sopts);
    for (const PlanRequest& req : reqs) svc.plan(req);
    log = svc.cache().log_path();
  }
  const std::uintmax_t full = fs::file_size(log);
  const LogRecord tail = log_records(log).back();
  const std::size_t tail_bytes =
      plan_log_record(*PlanKey::from_hex(tail.key_hex), tail.payload).size();
  fs::resize_file(log, full - tail.payload.size() / 2);

  {
    PlannerService svc(sopts);
    EXPECT_EQ(svc.cache_stats().torn_tails, 1u);
    EXPECT_EQ(fs::file_size(log), full - tail_bytes);
    for (std::size_t i = 0; i + 1 < reqs.size(); ++i)
      expect_results_identical(cold_search(reqs[i]), svc.plan(reqs[i]));
    EXPECT_EQ(svc.cache_stats().disk_hits, reqs.size() - 1);
    expect_results_identical(cold_search(reqs.back()), svc.plan(reqs.back()));
    EXPECT_EQ(svc.cache_stats().disk_misses, 1u);
    EXPECT_EQ(svc.cache_stats().disk_rejects, 0u);
    EXPECT_EQ(svc.stats().searches, 1u);
  }
  // The re-search's record starts where the cut ended: the log is whole.
  EXPECT_EQ(log_records(log).size(), reqs.size());
  PlannerService svc(sopts);
  EXPECT_EQ(svc.cache_stats().torn_tails, 0u);
  for (const PlanRequest& req : reqs) svc.plan(req);
  EXPECT_EQ(svc.cache_stats().disk_hits, reqs.size());
  EXPECT_EQ(svc.stats().searches, 0u);
}

TEST(PlannerService, CorruptRecordInTheMiddleIsResearchedAndSuperseded) {
  // Damage the second of four records in place: it is rejected and its
  // key re-searched, the records around it still hit, and after a reopen
  // the re-search's record wins over the damaged one.
  Graph g = models::build_transformer(models::t5_with_layers(1));
  const ir::TapGraph tg = ir::lower(g);
  const std::vector<PlanRequest> reqs = four_requests(tg);

  TempDir dir("middle");
  ServiceOptions sopts;
  sopts.cache.disk_dir = dir.path;
  sopts.request_threads = 1;
  std::string log;
  {
    PlannerService svc(sopts);
    for (const PlanRequest& req : reqs) svc.plan(req);
    log = svc.cache().log_path();
  }
  std::string text = read_file(log);
  const std::string damaged = log_records(log)[1].payload;
  const std::size_t at = text.find(damaged);
  ASSERT_NE(at, std::string::npos);
  text[at] = '!';  // the response line no longer parses
  {
    std::ofstream out(log, std::ios::trunc | std::ios::binary);
    out << text;
  }

  {
    PlannerService svc(sopts);
    for (const PlanRequest& req : reqs)
      expect_results_identical(cold_search(req), svc.plan(req));
    EXPECT_EQ(svc.cache_stats().disk_hits, reqs.size() - 1);
    EXPECT_EQ(svc.cache_stats().disk_rejects, 1u);
    EXPECT_EQ(svc.cache_stats().quarantined, 1u);
    EXPECT_EQ(svc.stats().searches, 1u);
  }
  const std::vector<LogRecord> records = log_records(log);
  ASSERT_EQ(records.size(), reqs.size() + 1);
  EXPECT_EQ(records.back().key_hex, records[1].key_hex);
  PlannerService svc(sopts);
  for (const PlanRequest& req : reqs)
    expect_results_identical(cold_search(req), svc.plan(req));
  EXPECT_EQ(svc.cache_stats().disk_hits, reqs.size());
  EXPECT_EQ(svc.cache_stats().disk_rejects, 0u);
  EXPECT_EQ(svc.stats().searches, 0u);
}

TEST(PlanCache, SecondCacheOnALockedLogRunsMemoryOnly) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  const ir::TapGraph tg = ir::lower(g);
  const PlanRequest req = four_requests(tg).front();
  const core::TapResult result = cold_search(req);
  const PlanKey key = make_plan_key(tg, req.opts, false);
  PlanKey other = key;
  other.sweep_mesh = true;

  TempDir dir("locked");
  PlanCacheOptions copts;
  copts.disk_dir = dir.path;
  PlanCache first(copts);
  first.insert(key, result, tg);
  const std::string before = read_file(first.log_path());
  {
    PlanCache second(copts);
    EXPECT_EQ(second.stats().lock_fallbacks, 1u);
    EXPECT_FALSE(second.lookup(key, tg).has_value());  // no disk tier
    second.insert(other, result, tg);
    EXPECT_TRUE(second.lookup(other, tg).has_value());  // memory tier
    EXPECT_EQ(second.stats().disk_writes, 0u);
    EXPECT_EQ(second.stats().disk_hits, 0u);
  }
  EXPECT_EQ(read_file(first.log_path()), before);
  EXPECT_EQ(first.stats().lock_fallbacks, 0u);
  EXPECT_TRUE(first.lookup(key, tg).has_value());
}

TEST(PlanCache, OldLayoutFilesAreIgnored) {
  // A directory of the one-file-per-key layout: its files are left in
  // place, and the key is a miss, re-searched once.
  Graph g = models::build_transformer(models::t5_with_layers(1));
  const ir::TapGraph tg = ir::lower(g);
  const PlanRequest req = four_requests(tg).front();
  const core::TapResult result = cold_search(req);
  const PlanKey key = make_plan_key(tg, req.opts, false);

  TempDir dir("old_layout");
  fs::create_directories(dir.path);
  const std::vector<std::string> old = {key.to_hex() + ".plan.json",
                                        key.to_hex() + ".plan.json.tmp",
                                        "x.plan.json.quarantine"};
  for (const std::string& name : old) {
    std::ofstream out(fs::path(dir.path) / name);
    out << disk_file_json(tg, key, result);
  }
  PlanCacheOptions copts;
  copts.disk_dir = dir.path;
  PlanCache cache(copts);
  EXPECT_FALSE(cache.lookup(key, tg).has_value());
  EXPECT_EQ(cache.stats().disk_misses, 1u);
  EXPECT_EQ(cache.stats().disk_rejects, 0u);
  EXPECT_EQ(cache.stats().torn_tails, 0u);
  for (const std::string& name : old)
    EXPECT_TRUE(fs::exists(fs::path(dir.path) / name)) << name;
  EXPECT_EQ(fs::file_size(cache.log_path()), 0u);
}

TEST(PlanCache, MissReadsNothingAndInsertAppendsOnce) {
  // The call pattern: a miss on an unlogged key never reaches the read
  // site, an insert reaches the write site once, a disk hit reaches the
  // read site once, and the directory only ever holds the log.
  Graph g = models::build_transformer(models::t5_with_layers(1));
  const ir::TapGraph tg = ir::lower(g);
  const PlanRequest req = four_requests(tg).front();
  const core::TapResult result = cold_search(req);
  const PlanKey key = make_plan_key(tg, req.opts, false);

  TempDir dir("calls");
  PlanCacheOptions copts;
  copts.disk_dir = dir.path;
  util::ScopedFaultInjector sites(
      "cache.disk.read=throw:0,cache.disk.write=throw:0");
  auto hits = [&](const char* site) { return sites.injector().hits(site); };
  auto only_the_log = [&] {
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(dir.path))
      names.push_back(e.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"plans.log"});
  };
  {
    PlanCache cache(copts);
    EXPECT_FALSE(cache.lookup(key, tg).has_value());
    EXPECT_EQ(hits("cache.disk.read"), 0u);
    EXPECT_EQ(cache.stats().disk_misses, 1u);
    cache.insert(key, result, tg);
    EXPECT_EQ(hits("cache.disk.write"), 1u);
    only_the_log();
  }
  PlanCache cache(copts);
  EXPECT_TRUE(cache.lookup(key, tg).has_value());
  EXPECT_EQ(hits("cache.disk.read"), 1u);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  only_the_log();
}

// ---------------------------------------------------------------------------
// Family-level reuse
// ---------------------------------------------------------------------------

TEST(PlannerService, FamilyCacheReusesBlocksAcrossDepths) {
  // Plan T5-2L, then T5-3L in the same service: the whole-graph key
  // misses, but the shared encoder/decoder block families must be served
  // from the family cache — and the result still matches a cold search.
  Graph g2 = models::build_transformer(models::t5_with_layers(2));
  Graph g3 = models::build_transformer(models::t5_with_layers(3));
  ir::TapGraph t2 = ir::lower(g2), t3 = ir::lower(g3);
  core::TapOptions opts = small_cluster_opts();
  const core::TapResult cold3 = core::auto_parallel(t3, opts);

  ServiceOptions sopts;
  sopts.request_threads = 1;
  PlannerService svc(sopts);
  svc.plan({&t2, opts, false});
  const std::uint64_t hits_before = svc.stats().family_hits;
  const core::TapResult via_service = svc.plan({&t3, opts, false});

  EXPECT_EQ(svc.stats().searches, 2u);  // both were whole-graph misses
  EXPECT_GT(svc.stats().family_hits, hits_before);
  expect_results_identical(cold3, via_service);
}

}  // namespace
}  // namespace tap::service
