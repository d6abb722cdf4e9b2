// serve_churn: requests against one in-process plan-serving stack
// (HttpServer + PlanHandler + PlannerService) over a keep-alive
// connection, in an open loop at a fixed arrival rate, latency timed
// from each request's scheduled send. 75% of the requests name a
// never-seen key of a large seeded space, the rest re-read an earlier
// one. The memory tier holds 256 entries, fewer than the keys requested;
// the disk tier lives in a fresh directory under --work-dir. Each
// request's cost is the CPU time the whole process spent on it.
// search_ms_geomean is the service's own search time, read back from the
// cached PlanRecord of every key. The whole stack and its one sender run
// on one CPU; the sender runs the calibration task there whenever it is
// idle long enough, and times are reported in reference ms (calib.h).
//
// Every answer is checked against the plan_response_json of a direct
// core::auto_parallel search made during set-up, outside the service.
//
// The traced run cannot see inside the server, so it serves each request
// in process through the calls PlanHandler makes (model_spec_from_json,
// build_spec_model + ir::lower, PlannerService::key_for / plan,
// plan_response_json) with a span around each, alternating with the same
// path untraced.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include <unistd.h>

#include "calib.h"
#include "common.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "net/http_server.h"
#include "net/plan_client.h"
#include "net/plan_handler.h"
#include "service/planner_service.h"
#include "service/wire.h"
#include "sim/simulator.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace tap;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One built and lowered architecture; `tg` references `graph`, so a
/// Model never moves once lowered.
struct Model {
  Graph graph;
  std::unique_ptr<ir::TapGraph> tg;
};

std::string arch_key(const service::ModelSpec& s) {
  return s.model + "/" + std::to_string(s.layers) + "/" +
         std::to_string(s.classes) + "/" + std::to_string(s.batch);
}

/// Architecture cache keyed like PlanHandler's: built and lowered on
/// first use, under the lock, and kept for the run.
class Models {
 public:
  const Model& get(const service::ModelSpec& spec, Tracer* t = nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    std::unique_ptr<Model>& m = models_[arch_key(spec)];
    if (m == nullptr) {
      m = std::make_unique<Model>();
      m->graph = service::build_spec_model(spec);
      {
        SpanScope s(t, "ir.lower");
        m->tg = std::make_unique<ir::TapGraph>(ir::lower(m->graph));
      }
      // Several searches may share this graph at once (specs that differ
      // only in mesh); fill its lazily built caches before any of them
      // can, as auto_parallel_best_mesh does before its fan-out.
      (void)m->tg->cached_topo_order();
      if (m->tg->num_nodes() > 0)
        (void)m->tg->consumers(m->tg->nodes().front().id);
    }
    return *m;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Model>> models_;
};

/// Reference answer for one spec: direct search, outside service and
/// cache.
struct Reference {
  service::ModelSpec spec;
  std::string body;  ///< POST /plan request body
  service::PlanKey key;
  std::string bytes;
  double step_ms = 0.0;
};

Reference make_reference(const service::ModelSpec& spec, const Model& m) {
  Reference ref;
  ref.spec = spec;
  ref.body = service::model_spec_to_json(spec);
  const core::TapOptions o = service::options_for_spec(spec, 1);
  const core::TapResult r = spec.sweep()
                                ? core::auto_parallel_best_mesh(*m.tg, o)
                                : core::auto_parallel(*m.tg, o);
  ref.key = service::make_plan_key(*m.tg, o, spec.sweep());
  ref.bytes = service::plan_response_json(*m.tg, ref.key, r);
  ref.step_ms = sim::simulate_step(*m.tg, r.routed, r.best_plan.num_shards,
                                   o.cluster)
                    .iteration_s *
                1e3;
  return ref;
}

/// References for `specs`, searched on every hardware thread.
std::vector<Reference> make_references(
    const std::vector<service::ModelSpec>& specs, Models* models) {
  std::vector<Reference> refs(specs.size());
  util::ThreadPool pool(hardware_threads());
  pool.parallel_for(specs.size(), [&](std::size_t i) {
    refs[i] = make_reference(specs[i], models->get(specs[i]));
  });
  return refs;
}

/// One in-process serving stack on an ephemeral port.
struct Stack {
  Stack(service::ServiceOptions so, int connections)
      : svc(std::move(so)),
        handler(&svc, {}),
        server([this](const net::HttpMessage& r) { return handler.handle(r); },
               server_options(connections)) {
    server.start();
  }
  ~Stack() { server.stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  static net::HttpServerOptions server_options(int connections) {
    net::HttpServerOptions o;
    o.connection_threads = connections;
    return o;
  }

  service::PlannerService svc;
  net::PlanHandler handler;
  net::HttpServer server;
};

net::HttpMessage post_plan(const std::string& body) {
  net::HttpMessage m;
  m.method = "POST";
  m.target = "/plan";
  m.body = body;
  return m;
}

/// POSTs `ref`'s body; true when the answer is 200 with the reference
/// bytes.
bool request_ok(net::HttpConnection& conn, const net::HttpMessage& post,
                const Reference& ref) {
  try {
    const net::HttpMessage resp = conn.request(post);
    return resp.status == 200 && resp.body == ref.bytes;
  } catch (const std::exception&) {
    return false;
  }
}

/// What the in-process path produced for one request.
struct Served {
  service::PlanTelemetry telem;
  std::string bytes;
};

/// The calls PlanHandler::handle_plan makes, with a span around each when
/// `t` is set. A searched request's pass timings (as the planner reports
/// them in TapResult::pass_timings) become child spans of service.plan.
Served serve_in_process(const std::string& body, Models* models,
                        service::PlannerService* svc, Tracer* t) {
  Served out;
  service::ModelSpec spec;
  {
    SpanScope s(t, "serve.stage.parse");
    spec = service::model_spec_from_json(body);
  }
  const Model* model = nullptr;
  {
    SpanScope s(t, "serve.stage.build_model");
    model = &models->get(spec, t);
  }
  const service::PlanRequest req{model->tg.get(),
                                 service::options_for_spec(spec, 1),
                                 spec.sweep()};
  service::PlanKey key;
  {
    SpanScope s(t, "serve.stage.key");
    key = svc->key_for(req);
  }
  core::TapResult result;
  {
    SpanScope s(t, "service.plan");
    const double start = now_us();
    result = svc->plan(req, &out.telem);
    if (t != nullptr &&
        out.telem.served == service::PlanTelemetry::Served::kSearched) {
      double at = start + out.telem.queue_ms * 1e3;
      for (const core::PassTiming& p : result.pass_timings) {
        const char* name = pass_span_name(p.pass);
        t->add_closed(name, at, at + p.seconds * 1e6);
        at += p.seconds * 1e6;
      }
    }
  }
  {
    SpanScope s(t, "serve.stage.serialize");
    out.bytes = service::plan_response_json(*model->tg, key, result);
  }
  return out;
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------------

/// Requests per second. At 68 req/s a 40 s run sends 2720 requests, and
/// its 2040 fresh keys take nearly all of churn_strata(): the key
/// population differs from seed to seed in a few keys only. One sender,
/// and the stack on one CPU with it: few threads, and no hand-off that
/// waits for an idle CPU to wake, so the figures time the stack rather
/// than the host's scheduler.
constexpr double kChurnRate = 68.0;
constexpr int kChurnSenders = 1;
constexpr int kChurnSetups = 15;
/// The sender calibrates only when the next send is due at least this
/// many reference task times away.
constexpr double kCalibrateGap = 3.0;
/// The generator itself fell behind when a sender that was free to send
/// woke this late (p99); such a run is invalid.
constexpr double kMaxGeneratorLagMs = 25.0;

/// Share of requests that name a never-requested key. Not one half: the
/// median would then sit where the hits of deep models and the misses of
/// shallow ones overlap, whose costs are mostly thread hand-offs and
/// which the host's idle state moves by a fifth from run to run. At 0.75
/// it lies among the misses, a third of the way up.
constexpr double kChurnFreshShare = 0.75;

/// The key space: t5/bert/moe/gpt3 x depth 6..24 x batch x fixed mesh on
/// 2x8 GPUs, 2090 keys (build_spec_model ignores gpt3's batch, so it has
/// one), grouped in strata of one (model, depth) each.
std::vector<std::vector<service::ModelSpec>> churn_strata() {
  std::vector<std::vector<service::ModelSpec>> strata;
  const int meshes[][2] = {{1, 16}, {2, 8}, {4, 4}, {8, 2}, {16, 1}};
  for (const char* model : {"t5", "bert", "moe", "gpt3"}) {
    const bool batched = std::string(model) != "gpt3";
    for (int layers = 6; layers <= 24; ++layers) {
      strata.emplace_back();
      for (std::int64_t batch : {4, 8, 16, 32, 64, 128, 256}) {
        if (!batched && batch != 16) continue;
        for (const auto& mesh : meshes) {
          service::ModelSpec s;
          s.model = model;
          s.layers = layers;
          s.batch = batch;
          s.dp = mesh[0];
          s.tp = mesh[1];
          strata.back().push_back(s);
        }
      }
    }
  }
  return strata;
}

/// The order fresh keys are first requested in: rounds over the strata,
/// one key of each non-empty stratum per round, the strata of a round in
/// seeded order. Keys within a stratum come in one fixed shuffled order,
/// so every seed requests nearly the same key population (it differs in
/// the last, partial round) in a different sequence, and the figures of
/// two seeds stay comparable.
std::vector<service::ModelSpec> churn_fresh_order(std::uint64_t seed) {
  std::vector<std::vector<service::ModelSpec>> strata = churn_strata();
  util::Rng fixed(0xc405eull);
  for (auto& stratum : strata) shuffle(stratum, fixed);
  util::Rng rng(seed ^ 0xc405eull);
  std::vector<service::ModelSpec> order;
  for (std::size_t round = 0;; ++round) {
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < strata.size(); ++i)
      if (round < strata[i].size()) live.push_back(i);
    if (live.empty()) return order;
    shuffle(live, rng);
    for (std::size_t i : live) order.push_back(strata[i][round]);
  }
}

/// The request schedule: request i names fresh-order key schedule[i].
/// Fresh and re-read requests interleave deterministically at
/// kChurnFreshShare; a re-read picks uniformly among the keys already
/// requested.
std::vector<std::size_t> churn_schedule(std::size_t requests,
                                        std::size_t space,
                                        std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5c4edu);
  std::vector<std::size_t> out;
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    const bool want_fresh =
        static_cast<double>(fresh) < kChurnFreshShare * static_cast<double>(i + 1);
    if (fresh == 0 || (want_fresh && fresh < space)) {
      out.push_back(fresh++);
    } else {
      out.push_back(rng.next_below(fresh));
    }
  }
  return out;
}

struct ChurnSetup {
  ChurnSetup() = default;
  ChurnSetup(const ChurnSetup&) = delete;
  ChurnSetup& operator=(const ChurnSetup&) = delete;
  /// Stops the stack, then deletes its disk tier.
  ~ChurnSetup() {
    stack.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }

  std::vector<service::ModelSpec> space;
  std::vector<std::size_t> schedule;
  std::map<std::size_t, Reference> refs;  ///< per requested key
  std::string dir;
  std::unique_ptr<Stack> stack;
};

/// Request bodies of the set-up's first plans: fixed-mesh specs with a
/// batch the churn key space does not use.
std::vector<std::string> first_plan_bodies() {
  std::vector<std::string> bodies;
  for (const char* model : {"t5", "bert", "moe"}) {
    service::ModelSpec spec;
    spec.model = model;
    spec.layers = 4;
    spec.batch = 2;
    spec.dp = 2;
    spec.tp = 8;
    bodies.push_back(service::model_spec_to_json(spec));
  }
  return bodies;
}

/// Builds the schedule and the references for every key it names. Then
/// times kChurnSetups cold starts of a serving stack — fresh disk-tier
/// directory, server start, one GET /healthz per sender connection, and
/// the first plans (first_plan_bodies(), each a cold search) — and
/// setup_s is their median, in reference seconds from a calibration run
/// before each. Last, it stands up the run's own stack, untimed and with
/// nothing planned yet.
void setup_churn(ChurnSetup* s, const Options& opts, RunResult* out) {
  s->space = churn_fresh_order(opts.seed);
  const std::size_t requests =
      static_cast<std::size_t>(kChurnRate * opts.seconds);
  s->schedule = churn_schedule(requests, s->space.size(), opts.seed);
  std::vector<std::size_t> distinct(s->schedule.begin(), s->schedule.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<service::ModelSpec> specs;
  for (std::size_t k : distinct) specs.push_back(s->space[k]);
  {
    // The reference models go before the stack starts, so peak_rss_mb
    // is the serving stack's.
    Models models;
    std::vector<Reference> refs = make_references(specs, &models);
    for (std::size_t j = 0; j < distinct.size(); ++j)
      s->refs[distinct[j]] = std::move(refs[j]);
  }
  pin_to_one_cpu();  // the references above used every CPU

  std::vector<double> setup_s;
  HostSpeed speed;
  const std::vector<std::string> first_plans = first_plan_bodies();
  for (int rep = 0; rep <= kChurnSetups; ++rep) {
    const bool timed = rep < kChurnSetups;
    if (timed) speed.sample(rep);
    s->stack.reset();
    if (!s->dir.empty()) std::filesystem::remove_all(s->dir);
    s->dir = opts.work_dir + "/churn-cache-" + std::to_string(::getpid()) +
             "-" + std::to_string(rep);
    const auto t0 = Clock::now();
    std::filesystem::create_directories(s->dir);
    service::ServiceOptions so;
    so.cache.disk_dir = s->dir;
    s->stack = std::make_unique<Stack>(so, kChurnSenders);
    net::HttpMessage health;
    health.method = "GET";
    health.target = "/healthz";
    for (int c = 0; c < kChurnSenders; ++c) {
      net::HttpConnection conn({"127.0.0.1", s->stack->server.bound_port()},
                               {});
      if (conn.request(health).status != 200)
        throw std::runtime_error("serving stack did not come up");
      if (!timed || c > 0) continue;
      for (const std::string& body : first_plans) {
        if (conn.request(post_plan(body)).status != 200)
          throw std::runtime_error("serving stack did not plan");
      }
    }
    if (timed) setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  out->metrics["setup_s"] = median(setup_s) * speed.scale();
}

/// Distinct PlanKeys among the requested keys.
std::size_t distinct_plan_keys(const ChurnSetup& s) {
  std::set<std::string> keys;
  for (const auto& [k, ref] : s.refs) keys.insert(ref.key.to_hex());
  return keys.size();
}

RunResult run_churn(const Options& opts) {
  RunResult out;
  ChurnSetup s;
  setup_churn(&s, opts, &out);
  if (opts.trace) out.metrics.clear();
  service::PlannerService& svc = s.stack->svc;
  Models live_models;  // the traced run's cold architecture cache

  struct Sender {
    Tracer tracer;
    std::vector<Sample> samples, cpu;
    std::vector<double> lag_ms, gen_lag_ms, search_ms;
    std::vector<std::uint64_t> traced_ops;
    std::vector<double> untraced_ms;
    std::int64_t failed = 0;
  };
  std::vector<Sender> senders(kChurnSenders);
  std::vector<Clock::time_point> done_at(kChurnSenders);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  static_assert(kChurnSenders == 1, "one sender calibrates for the run");
  HostSpeed speed;
  const auto calibrate_gap =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(kCalibrateGap *
                                                    kCalibRefMs));
  std::vector<std::thread> threads;
  for (int c = 0; c < kChurnSenders; ++c) {
    threads.emplace_back([&, c] {
      Sender& me = senders[c];
      net::HttpConnection conn({"127.0.0.1", s.stack->server.bound_port()},
                               {});
      Clock::time_point free_at = start;
      for (std::size_t i = c; i < s.schedule.size(); i += kChurnSenders) {
        const Reference& ref = s.refs.at(s.schedule[i]);
        const auto due = after(start, static_cast<double>(i) / kChurnRate);
        if (!opts.trace && Clock::now() + calibrate_gap < due)
          speed.sample(ms_between(start, Clock::now()) / 1e3);
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        me.lag_ms.push_back(ms_between(due, sent));
        me.gen_lag_ms.push_back(ms_between(std::max(due, free_at), sent));
        bool ok = false;
        double cpu_ms = 0.0;
        if (!opts.trace) {
          const double c0 = process_cpu_ms();
          ok = request_ok(conn, post_plan(ref.body), ref);
          cpu_ms = process_cpu_ms() - c0;
        } else {
          const bool traced = i % 2 == 1;
          const std::uint64_t op = i + 1;
          me.tracer.begin_op(op);
          const auto t0 = Clock::now();
          Served served;
          {
            SpanScope span(traced ? &me.tracer : nullptr, "op");
            served = serve_in_process(ref.body, &live_models, &svc,
                                      traced ? &me.tracer : nullptr);
          }
          if (!traced) me.untraced_ms.push_back(ms_between(t0, Clock::now()));
          if (traced) me.traced_ops.push_back(op);
          if (served.telem.served ==
              service::PlanTelemetry::Served::kSearched)
            me.search_ms.push_back(served.telem.search_ms);
          ok = served.bytes == ref.bytes;
        }
        free_at = Clock::now();
        me.samples.push_back({ms_between(start, due) / 1e3,
                              ok ? ms_between(due, free_at) : kInf});
        me.cpu.push_back({me.samples.back().start_s, ok ? cpu_ms : kInf});
        if (!ok) ++me.failed;
      }
      done_at[c] = free_at;
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<Sample> latency, cpu;
  std::vector<double> lag, gen_lag, search_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<std::uint64_t> traced_ops;
  std::vector<const Tracer*> tracers;
  for (const Sender& me : senders) {
    latency.insert(latency.end(), me.samples.begin(), me.samples.end());
    cpu.insert(cpu.end(), me.cpu.begin(), me.cpu.end());
    lag.insert(lag.end(), me.lag_ms.begin(), me.lag_ms.end());
    gen_lag.insert(gen_lag.end(), me.gen_lag_ms.begin(), me.gen_lag_ms.end());
    search_ms.insert(search_ms.end(), me.search_ms.begin(),
                     me.search_ms.end());
    untraced_ms.insert(untraced_ms.end(), me.untraced_ms.begin(),
                       me.untraced_ms.end());
    traced_ops.insert(traced_ops.end(), me.traced_ops.begin(),
                      me.traced_ops.end());
    tracers.push_back(&me.tracer);
    out.failed += me.failed;
  }
  out.attempted = static_cast<std::int64_t>(latency.size());

  // Every distinct key must have cost exactly one search.
  const service::ServiceStats stats = svc.stats();
  const service::PlanCacheStats cache = svc.cache_stats();
  const std::size_t distinct = distinct_plan_keys(s);
  if (stats.searches != distinct) {
    out.correct = false;
    out.notes.push_back(format("serve_churn: %llu searches for %zu distinct "
                               "keys",
                               static_cast<unsigned long long>(stats.searches),
                               distinct));
  }
  const double gen_lag_p99 = quantile(gen_lag, 0.99);
  if (gen_lag_p99 > kMaxGeneratorLagMs) {
    out.correct = false;
    out.notes.push_back(format("serve_churn: run invalid, the generator fell "
                               "behind (p99 %.2f ms late while idle)",
                               gen_lag_p99));
  }
  out.notes.push_back(format(
      "serve_churn: open loop %.0f req/s on %d sender, %zu requests, %zu "
      "distinct keys; generator lag p99 %.3f ms%s",
      kChurnRate, kChurnSenders, s.schedule.size(), distinct, gen_lag_p99,
      opts.trace ? ""
                 : format("; calibration task median %.3f ms over %zu runs "
                          "(reference %.1f ms)",
                          speed.median_ms(), speed.size(), kCalibRefMs)
                       .c_str()));

  auto& mt = out.metrics;
  if (!opts.trace) {
    mt["peak_rss_mb"] = peak_rss_mb();  // before the lookups below build
    // The service's own search time per key, from the cached records,
    // scaled by the host speed when the key was first requested.
    std::map<std::size_t, double> first_due_s;
    for (std::size_t i = 0; i < s.schedule.size(); ++i)
      first_due_s.emplace(s.schedule[i], static_cast<double>(i) / kChurnRate);
    Models lookup_models;
    std::vector<double> key_search_ms;
    for (const auto& [k, ref] : s.refs) {
      const auto rec =
          svc.cache().lookup(ref.key, *lookup_models.get(ref.spec).tg);
      if (rec)
        key_search_ms.push_back(rec->search_seconds * 1e3 *
                                speed.scale_at(first_due_s.at(k), opts.seconds));
    }
    to_reference(&latency, speed, opts.seconds);
    to_reference(&cpu, speed, opts.seconds);
    // The open loop offers a fixed rate, so throughput is over the whole
    // run: requests over first scheduled send to last answer.
    mt["ops_per_s"] =
        static_cast<double>(latency.size()) /
        (ms_between(start, *std::max_element(done_at.begin(), done_at.end())) /
         1e3);
    // The metrics are the CPU time each request cost the process (stack
    // and sender): its mean and p90. The latency from the scheduled send
    // also holds waits for I/O and for the host, and how requests queue
    // behind the few dozen deepest cold misses, which move its tail by a
    // sixth from run to run; it is shown, not gated. So are the p99 (it
    // rests on those cold misses and moves by a tenth) and the p50 (it
    // falls among small requests whose cost is mostly kernel work:
    // sockets, disk-tier files, which the calibration task does not
    // follow; it moves by a tenth to a sixth).
    mt["cpu_ms_per_op"] = mean_ms(cpu);
    std::string cpu_note =
        format("request CPU time, ref ms: mean %.4g;", mean_ms(cpu));
    percentile_ms(cpu, 0.50, &cpu_note);
    mt["cpu_p90_ms"] = percentile_ms(cpu, 0.90, &cpu_note);
    percentile_ms(cpu, 0.99, &cpu_note);
    std::string latency_note = "latency from scheduled send, ref ms:";
    percentile_ms(latency, 0.50, &latency_note);
    percentile_ms(latency, 0.99, &latency_note);
    out.notes.push_back(cpu_note);
    out.notes.push_back(latency_note);
    mt["search_ms_geomean"] = geomean(key_search_ms);
    // Over distinct keys: re-read multiplicities are random per seed.
    std::vector<double> key_steps;
    for (const auto& [k, ref] : s.refs) key_steps.push_back(ref.step_ms);
    mt["plan_step_ms"] = geomean(key_steps);
  } else {
    const OpLayers layers = self_times(tracers);
    const std::map<std::uint64_t, double> op_us =
        span_durations(tracers, "op");
    for (std::uint64_t op : traced_ops) traced_ms.push_back(op_us.at(op) / 1e3);
    std::map<std::string, double> self = mean_self_ms(layers, traced_ops);
    for (const char* name :
         {"ir.lower", "planner.pass.build_pattern_table",
          "planner.pass.prune", "planner.pass.family_search",
          "planner.pass.global_refine", "planner.pass.finalize_cost",
          "serve.stage.parse", "serve.stage.build_model", "serve.stage.key",
          "serve.stage.serialize", "service.plan"})
      mt[std::string(name) + "_ms"] = self[name];
    mt["unattributed_ms"] = self["op"];
    mt["trace.op_ms"] = mean(traced_ms);
    mt["trace.untraced_op_ms"] = mean(untraced_ms);
    mt["trace.overhead_ms"] = mean(traced_ms) - mean(untraced_ms);
    mt["service.search_ms"] = mean(search_ms);
    const double fam = static_cast<double>(stats.family_hits) +
                       static_cast<double>(stats.family_misses);
    mt["service.family_hit_ratio"] =
        fam > 0 ? static_cast<double>(stats.family_hits) / fam : 0.0;
    mt["service.coalesced"] = static_cast<double>(stats.coalesced);
    mt["service.incremental.hits"] =
        static_cast<double>(stats.incremental_hits);
    mt["cache.mem.evictions"] = static_cast<double>(cache.evictions);
    mt["cache.disk.hits"] = static_cast<double>(cache.disk_hits);
    mt["cache.disk.writes"] = static_cast<double>(cache.disk_writes);
    mt["sched_lag_p99_ms"] = quantile(lag, 0.99);
    out.notes.push_back(accounting_line(self, mean(traced_ms)));
    if (!opts.spans_out.empty() && !write_spans(opts.spans_out, tracers))
      out.notes.push_back("warning: could not write " + opts.spans_out);
  }
  return out;
}

}  // namespace

RunResult run_serve_churn(const Options& opts) { return run_churn(opts); }

}  // namespace perfbench
