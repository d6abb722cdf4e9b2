// tap_cli — command-line front-end over the whole library. `tap_cli
// --help` (or -h) prints the flags, the default run and the exit codes:
// see kUsage below.
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/pipeline.h"
#include "core/planner_pipeline.h"
#include "core/tap.h"
#include "core/visualize.h"
#include "cost/cost_model.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "baselines/expert_plans.h"
#include "net/plan_client.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "report/report.h"
#include "service/planner_service.h"
#include "service/wire.h"
#include "sim/simulator.h"
#include "util/fault.h"
#include "util/strings.h"

namespace {

constexpr const char kUsage[] = R"usage(usage:
  tap_cli [--model t5|bert|gpt3|resnet50|resnet152|moe]
          [--layers N] [--classes N] [--batch N]
          [--nodes M] [--gpus N]            cluster S(M, N)
          [--mesh DPxTP | --mesh auto]      device mesh (default auto)
          [--threads N]                     search workers (0 = auto)
          [--pipeline K]                    pipeline stages (§4.8)
          [--amp] [--recompute] [--zero1]   training techniques (§4.8)
          [--xla]                           fusion pass (Fig. 8)
          [--load-plan FILE]                plan with a --plan-json
                                            file's plan (no search)
          [--cache-dir DIR]                 plan-cache disk tier: serve
                                            repeat invocations from the
                                            log DIR/plans.log instead of
                                            re-searching
          [--no-cache]                      bypass the PlannerService
          [--trace FILE]                    chrome://tracing JSON of the
                                            simulated step only
          [--profile FILE]                  one chrome://tracing JSON of
                                            the WHOLE run: planner pass
                                            spans, cache/service events
                                            and the simulated step on a
                                            single timeline
          [--stats FILE|-]                  obs::dump_json() metrics
                                            snapshot ("-" = stdout)
          [--viz]                           print the plan (Fig. 14 style)
          [--explain]                       print the plan report: top-K
                                            comm contributors, pruning
                                            savings, simulated critical
                                            path (report/report.h)
          [--diff-baseline NAME]            add a plan diff vs an expert
                                            baseline (dp | megatron |
                                            mha | ffn) to the report
          [--report FILE]                   write the report JSON to FILE
                                            (implies --explain)
          [--topk N]                        contributors before the
                                            "(other)" rollup (default 10)
          [--deadline-ms N]                 latency budget: return the
                                            best plan found within N ms
                                            (anytime / fallback, see the
                                            provenance line)
          [--max-checkpoints N]             deterministic anytime cutoff:
                                            stop the search after N
                                            checkpoints (reproducible at
                                            any --threads)
          [--fault SPEC]                    install a fault injector,
                                            e.g. cache.disk.read=throw:0.5
                                            (seed via TAP_FAULT_SEED)
          [--serve-url URL[,URL...]]        plan over HTTP instead of
                                            in-process: route this
                                            request through net::PlanClient
                                            to the tap_serve shard owning
                                            its PlanKey (one slot per
                                            shard id, "|"-separated
                                            replica URLs per slot;
                                            --explain fetches the
                                            server-side report).
                                            "@FILE" loads the slots from
                                            a fleet manifest written by
                                            sbin/start-shards.sh
          [--plan-json FILE|-]              write the canonical plan-
                                            response JSON (service/wire.h).
                                            Offline it is built in
                                            process; with --serve-url it
                                            is the verbatim server body —
                                            the two are byte-identical,
                                            which CI asserts with cmp.
          [--help | -h]                     print this text and exit 0

With no arguments: plans T5 with 8+8 layers for 2x8 V100s with an
automatic mesh sweep and prints the summary.

Exit codes: 0 success; 2 usage error (unknown flag/model, malformed
value, invalid --fault spec); 1 runtime failure (unreadable input,
unwritable output, plan does not route).
)usage";

struct Args {
  bool help = false;
  std::string model = "t5";
  int layers = 8;
  std::int64_t classes = 1000;
  std::int64_t batch = 16;
  int nodes = 2;
  int gpus = 8;
  std::string mesh = "auto";
  int threads = 1;
  int pipeline = 1;
  bool amp = false, recompute = false, zero1 = false, xla = false, viz = false;
  bool no_cache = false, explain = false;
  int topk = 10;
  std::int64_t deadline_ms = 0;
  std::int64_t max_checkpoints = -1;
  std::string fault_spec;
  std::string load_plan, trace_path, cache_dir;
  std::string profile_path, stats_path, report_path, diff_baseline;
  std::string serve_url, plan_json_path;
};

/// Strict base-10 parse: the whole token must be a number (no atoi
/// half-parses — "8x" or "fast" is a usage error, not an 8 or a 0).
bool parse_i64(const char* s, std::int64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool known_model(const std::string& m) { return tap::service::known_model(m); }

bool parse(int argc, char** argv, Args* a) {
  bool missing = false;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      missing = true;
      return nullptr;
    }
    return argv[++i];
  };
  bool bad_number = false;
  auto i64 = [&](const char* flag, const char* v, std::int64_t* out) {
    if (v == nullptr) return;
    if (!parse_i64(v, out)) {
      std::cerr << "bad value for " << flag << ": '" << v << "'\n";
      bad_number = true;
    }
  };
  auto i32 = [&](const char* flag, const char* v, int* out) {
    std::int64_t wide = *out;
    i64(flag, v, &wide);
    *out = static_cast<int>(wide);
  };
  for (int i = 1; i < argc; ++i) {
    const char* f = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(f, "--help") || !std::strcmp(f, "-h")) {
      a->help = true;
      return true;
    } else if (!std::strcmp(f, "--model") && (v = need_value(i))) {
      a->model = v;
    } else if (!std::strcmp(f, "--layers")) {
      i32(f, need_value(i), &a->layers);
    } else if (!std::strcmp(f, "--classes")) {
      i64(f, need_value(i), &a->classes);
    } else if (!std::strcmp(f, "--batch")) {
      i64(f, need_value(i), &a->batch);
    } else if (!std::strcmp(f, "--nodes")) {
      i32(f, need_value(i), &a->nodes);
    } else if (!std::strcmp(f, "--gpus")) {
      i32(f, need_value(i), &a->gpus);
    } else if (!std::strcmp(f, "--mesh") && (v = need_value(i))) {
      a->mesh = v;
    } else if (!std::strcmp(f, "--threads")) {
      i32(f, need_value(i), &a->threads);
    } else if (!std::strcmp(f, "--pipeline")) {
      i32(f, need_value(i), &a->pipeline);
    } else if (!std::strcmp(f, "--amp")) {
      a->amp = true;
    } else if (!std::strcmp(f, "--recompute")) {
      a->recompute = true;
    } else if (!std::strcmp(f, "--zero1")) {
      a->zero1 = true;
    } else if (!std::strcmp(f, "--xla")) {
      a->xla = true;
    } else if (!std::strcmp(f, "--viz")) {
      a->viz = true;
    } else if (!std::strcmp(f, "--load-plan") && (v = need_value(i))) {
      a->load_plan = v;
    } else if (!std::strcmp(f, "--cache-dir") && (v = need_value(i))) {
      a->cache_dir = v;
    } else if (!std::strcmp(f, "--no-cache")) {
      a->no_cache = true;
    } else if (!std::strcmp(f, "--trace") && (v = need_value(i))) {
      a->trace_path = v;
    } else if (!std::strcmp(f, "--profile") && (v = need_value(i))) {
      a->profile_path = v;
    } else if (!std::strcmp(f, "--stats") && (v = need_value(i))) {
      a->stats_path = v;
    } else if (!std::strcmp(f, "--explain")) {
      a->explain = true;
    } else if (!std::strcmp(f, "--diff-baseline") && (v = need_value(i))) {
      a->diff_baseline = v;
      a->explain = true;
    } else if (!std::strcmp(f, "--report") && (v = need_value(i))) {
      a->report_path = v;
      a->explain = true;
    } else if (!std::strcmp(f, "--topk")) {
      i32(f, need_value(i), &a->topk);
    } else if (!std::strcmp(f, "--deadline-ms")) {
      i64(f, need_value(i), &a->deadline_ms);
    } else if (!std::strcmp(f, "--max-checkpoints")) {
      i64(f, need_value(i), &a->max_checkpoints);
    } else if (!std::strcmp(f, "--fault") && (v = need_value(i))) {
      a->fault_spec = v;
    } else if (!std::strcmp(f, "--serve-url") && (v = need_value(i))) {
      a->serve_url = v;
    } else if (!std::strcmp(f, "--plan-json") && (v = need_value(i))) {
      a->plan_json_path = v;
    } else if (!missing) {
      std::cerr << "unknown flag: " << f << "\n";
      return false;
    }
    if (missing) return false;
  }
  if (bad_number) return false;
  if (!known_model(a->model)) {
    std::cerr << "unknown model '" << a->model
              << "' (want t5 | bert | gpt3 | resnet50 | resnet152 | moe)\n";
    return false;
  }
  if (a->mesh != "auto") {
    int dp = 1, tp = 1;
    char trailing = '\0';
    if (std::sscanf(a->mesh.c_str(), "%dx%d%c", &dp, &tp, &trailing) != 2 ||
        dp < 1 || tp < 1) {
      std::cerr << "bad --mesh '" << a->mesh << "' (want DPxTP or auto)\n";
      return false;
    }
  }
  if (!a->diff_baseline.empty() && a->diff_baseline != "dp" &&
      a->diff_baseline != "megatron" && a->diff_baseline != "mha" &&
      a->diff_baseline != "ffn") {
    std::cerr << "unknown --diff-baseline '" << a->diff_baseline
              << "' (want dp | megatron | mha | ffn)\n";
    return false;
  }
  return true;
}

/// Writes `content` to `path`, reporting failures (unwritable directory,
/// disk full at flush) on stderr. tap_cli exits 1 when this fails — a
/// silently empty --report/--plan-json file is worse than an error.
bool write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "cannot write " << what << " to " << path << "\n";
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    std::cerr << "failed while writing " << what << " to " << path << "\n";
    return false;
  }
  return true;
}

/// The wire ModelSpec for these flags: the single source of truth for
/// "which planning problem is this" shared with the serving tier, so the
/// CLI and a tap_serve shard land on the same PlanKey by construction.
tap::service::ModelSpec spec_of(const Args& a) {
  tap::service::ModelSpec spec;
  spec.model = a.model;
  spec.layers = a.layers;
  spec.classes = a.classes;
  spec.batch = a.batch;
  spec.nodes = a.nodes;
  spec.gpus = a.gpus;
  spec.deadline_ms = a.deadline_ms;
  if (a.mesh != "auto") {
    // parse() validated the DPxTP shape already.
    std::sscanf(a.mesh.c_str(), "%dx%d", &spec.dp, &spec.tp);
  }
  return spec;
}

tap::Graph build_model(const Args& a) {
  return tap::service::build_spec_model(spec_of(a));
}

std::vector<std::string> split_urls(const std::string& csv) {
  std::vector<std::string> urls;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) urls.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return urls;
}

/// --serve-url accepts either a comma-separated shard-slot list (each
/// slot optionally "url|url|..." replicas) or "@FILE", a fleet manifest
/// written by sbin/start-shards.sh: one line per shard slot in shard-id
/// order, '#' comments and blank lines ignored. Throws std::runtime_error
/// on an unreadable manifest (the serve paths already report-and-exit on
/// exceptions).
std::vector<std::string> load_urls(const std::string& arg) {
  if (arg.empty() || arg[0] != '@') return split_urls(arg);
  const std::string path = arg.substr(1);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fleet manifest " + path);
  std::vector<std::string> urls;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    urls.push_back(line.substr(first, last - first + 1));
  }
  if (urls.empty())
    throw std::runtime_error("fleet manifest " + path + " lists no shards");
  return urls;
}

/// "/explain?model=t5&layers=2&..." for the owning shard.
std::string explain_target(const tap::service::ModelSpec& spec) {
  std::string t = "/explain?model=" + spec.model;
  t += "&layers=" + std::to_string(spec.layers);
  t += "&classes=" + std::to_string(spec.classes);
  t += "&batch=" + std::to_string(spec.batch);
  t += "&nodes=" + std::to_string(spec.nodes);
  t += "&gpus=" + std::to_string(spec.gpus);
  if (!spec.sweep())
    t += "&mesh=" + std::to_string(spec.dp) + "x" + std::to_string(spec.tp);
  if (spec.deadline_ms > 0)
    t += "&deadline_ms=" + std::to_string(spec.deadline_ms);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tap;
  Args args;
  if (!parse(argc, argv, &args)) return 2;
  if (args.help) {
    std::cout << kUsage;
    return 0;
  }

  // --fault: install the injector before any planning so every site in
  // the run is covered. Seed comes from TAP_FAULT_SEED, matching the
  // env-variable install path.
  std::unique_ptr<util::ScopedFaultInjector> fault;
  if (!args.fault_spec.empty()) {
    std::uint64_t seed = 0;
    if (const char* s = std::getenv("TAP_FAULT_SEED")) {
      std::int64_t parsed = 0;
      if (parse_i64(s, &parsed)) seed = static_cast<std::uint64_t>(parsed);
    }
    try {
      fault = std::make_unique<util::ScopedFaultInjector>(args.fault_spec,
                                                          seed);
    } catch (const std::exception& e) {
      std::cerr << "invalid --fault spec: " << e.what() << "\n";
      return 2;
    }
  }

  // --profile: activate the observability session before any planning so
  // planner pass spans, cache/service events and the simulated step all
  // record onto one timeline.
  obs::TraceSession session;
  if (!args.profile_path.empty()) session.start();

  Graph model = build_model(args);
  ir::TapGraph tg = ir::lower(model);
  std::printf("model %s: %s params, %zu ops -> %zu GraphNodes\n",
              model.name().c_str(),
              util::human_count(static_cast<double>(model.total_params()))
                  .c_str(),
              model.num_nodes(), tg.num_nodes());

  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(args.nodes);
  opts.cluster.gpus_per_node = args.gpus;
  opts.threads = args.threads;
  opts.deadline_ms = args.deadline_ms;
  opts.max_checkpoints = args.max_checkpoints;

  // --serve-url: plan over HTTP. The CLI builds the same model and
  // options locally (that is how it knows the PlanKey and how it can
  // route/simulate the answer), but the search itself runs on the
  // tap_serve shard that owns the key.
  std::string served_plan_body;
  const service::ModelSpec spec = spec_of(args);
  // The key a tap_serve shard would compute for this spec: built from
  // options_for_spec (not the CLI's local opts) so fixed-mesh flags land
  // in the fingerprint exactly the way the server spells them.
  const service::PlanKey wire_key = service::make_plan_key(
      tg, service::options_for_spec(spec, args.threads), spec.sweep());

  core::TapResult result;
  if (!args.serve_url.empty()) {
    if (args.pipeline > 1 || !args.load_plan.empty()) {
      std::cerr << "--serve-url does not combine with --pipeline or "
                   "--load-plan\n";
      return 2;
    }
    const service::PlanKey& key = wire_key;
    try {
      // Root the request trace here: the PlanClient forwards this context
      // as a traceparent header, the shard echoes it back, and (with
      // --profile) the client span, the shard's flight record, and the
      // planner pass spans all correlate under one trace id.
      const obs::RequestContext rctx = obs::generate_request_context();
      obs::ScopedRequestContext rscope(rctx);
      net::PlanClient client(load_urls(args.serve_url));
      net::HttpMessage resp =
          client.post_plan(key, service::model_spec_to_json(spec));
      std::printf("trace: %s\n", obs::format_traceparent(rctx).c_str());
      if (resp.status != 200) {
        std::cerr << "server answered " << resp.status << ": " << resp.body
                  << "\n";
        return 1;
      }
      served_plan_body = resp.body;
      service::PlanResponse served =
          service::plan_response_from_json(tg, resp.body);
      if (served.key != key.to_hex())
        throw std::runtime_error("the response is for key " + served.key);
      result = std::move(served.result);
      std::printf("served: shard %d of %d (%s), key %s\n",
                  client.shard_for(key), client.num_shards(),
                  client.url_of(client.shard_for(key)).c_str(),
                  key.to_hex().c_str());
    } catch (const std::exception& e) {
      std::cerr << "serve request failed: " << e.what() << "\n";
      return 1;
    }
    result.routed = sharding::route_plan(tg, result.best_plan);
    if (!result.routed.valid) {
      std::cerr << "served plan does not route: " << result.routed.error
                << "\n";
      return 1;
    }
  } else if (!args.load_plan.empty()) {
    std::ifstream in(args.load_plan);
    if (!in) {
      std::cerr << "cannot read " << args.load_plan << "\n";
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      result.best_plan =
          service::plan_response_from_json(tg, buf.str()).result.best_plan;
    } catch (const std::exception& e) {
      std::cerr << "cannot parse plan " << args.load_plan << ": " << e.what()
                << "\n";
      return 1;
    }
    result.routed = sharding::route_plan(tg, result.best_plan);
    if (!result.routed.valid) {
      std::cerr << "loaded plan does not route: " << result.routed.error
                << "\n";
      return 1;
    }
    result.cost = core::finalize_cost(tg, result.routed, opts.cluster);
    std::printf("loaded plan from %s (mesh %s)\n", args.load_plan.c_str(),
                result.best_plan.mesh().to_string().c_str());
  } else if (args.pipeline > 1) {
    opts.num_shards = opts.cluster.world();
    core::PipelineOptions popts;
    popts.stages = args.pipeline;
    auto piped = core::auto_parallel_pipelined(tg, opts, popts);
    result = std::move(piped.inner);
    std::printf("pipeline: %d stages, bottleneck %.0f%%, bubble %.0f%%\n",
                piped.stages, piped.bottleneck_fraction * 100.0,
                piped.bubble_fraction * 100.0);
  } else {
    const bool sweep = args.mesh == "auto";
    if (!sweep) {
      int dp = 1, tp = 1;
      if (std::sscanf(args.mesh.c_str(), "%dx%d", &dp, &tp) != 2) {
        std::cerr << "bad --mesh (want DPxTP or auto)\n";
        return 2;
      }
      opts.dp_replicas = dp;
      opts.num_shards = tp;
    }
    if ((!args.cache_dir.empty() || !args.profile_path.empty() ||
         args.deadline_ms > 0) &&
        !args.no_cache) {
      // Route through the PlannerService so a repeat invocation for the
      // same architecture + cluster is served from --cache-dir (the result
      // is bit-identical to a direct search by construction). --profile
      // also takes this path so the cache/service events show up on the
      // exported timeline, and --deadline-ms so an expired budget degrades
      // to the Megatron fallback instead of an error.
      service::ServiceOptions sopts;
      sopts.cache.disk_dir = args.cache_dir;
      service::PlannerService svc(sopts);
      result = svc.plan({&tg, opts, sweep});
      const auto cs = svc.cache_stats();
      const auto ss = svc.stats();
      std::printf("cache: %s (%s), key %s, families reused %llu\n",
                  cs.memory_hits + cs.disk_hits > 0 ? "hit" : "miss",
                  cs.disk_hits > 0      ? "disk"
                  : cs.memory_hits > 0  ? "memory"
                  : cs.disk_rejects > 0 ? "stale record rejected"
                                        : "searched",
                  svc.key_for({&tg, opts, sweep}).to_hex().c_str(),
                  static_cast<unsigned long long>(ss.family_hits));
    } else if (sweep) {
      result = core::auto_parallel_best_mesh(tg, opts);
    } else {
      result = core::auto_parallel(tg, opts);
    }
  }

  std::printf("plan: mesh %s, %lld candidates examined in %.1f ms, comm "
              "cost %.2f ms/step\n",
              result.best_plan.mesh().to_string().c_str(),
              static_cast<long long>(result.candidate_plans),
              result.search_seconds * 1e3, result.cost.total() * 1e3);
  if (!result.provenance.complete()) {
    const core::PlanProvenance& p = result.provenance;
    std::printf("provenance: %s (%lld/%lld families, %lld/%lld meshes%s%s%s)\n",
                core::plan_source_name(p.source),
                static_cast<long long>(p.families_searched),
                static_cast<long long>(p.families_total),
                static_cast<long long>(p.meshes_searched),
                static_cast<long long>(p.meshes_total),
                p.deadline_hit ? ", deadline hit" : "",
                p.fallback_reason.empty() ? "" : ", reason: ",
                p.fallback_reason.c_str());
  }

  if (args.viz) {
    std::cout << core::visualize_plan(tg, result.best_plan,
                                      pruning::prune_graph(tg, opts.prune));
  }

  sim::SimOptions sopts;
  sopts.xla_fusion = args.xla;
  sopts.training.amp = args.amp;
  sopts.training.recompute = args.recompute;
  sopts.training.zero1 = args.zero1;
  sim::Trace trace;
  if (!args.trace_path.empty() || !args.profile_path.empty())
    sopts.trace = &trace;

  auto step = sim::simulate_step(tg, result.routed,
                                 result.best_plan.num_shards, opts.cluster,
                                 sopts);
  std::printf("simulated: %.1f ms/iter (compute %.1f, comm %.1f busy / "
              "%.1f exposed), %s per GPU\n",
              step.iteration_s * 1e3, step.compute_s() * 1e3,
              step.comm_s * 1e3, step.exposed_comm_s * 1e3,
              util::human_bytes(static_cast<double>(step.memory.total()))
                  .c_str());

  if (args.explain && !args.serve_url.empty()) {
    // The report is the server's: same bytes any client would see. The
    // baseline diff is a local-analysis feature and is not applied here.
    if (!args.diff_baseline.empty())
      std::cerr << "--diff-baseline is ignored with --serve-url\n";
    try {
      net::PlanClient client(load_urls(args.serve_url));
      net::HttpMessage resp =
          client.get(client.shard_for(wire_key), explain_target(spec));
      if (resp.status != 200) {
        std::cerr << "explain failed with " << resp.status << ": "
                  << resp.body << "\n";
        return 1;
      }
      report::PlanReport report = report::from_json(resp.body);
      std::cout << report::to_text(report);
      if (!args.report_path.empty()) {
        if (!write_file(args.report_path, resp.body + "\n", "report"))
          return 1;
        std::printf("report written to %s\n", args.report_path.c_str());
      }
    } catch (const std::exception& e) {
      std::cerr << "explain request failed: " << e.what() << "\n";
      return 1;
    }
  } else if (args.explain) {
    report::ReportOptions ropts;
    ropts.top_k = args.topk;
    ropts.sim = sopts;
    ropts.sim.trace = nullptr;  // the report records its own trace
    ropts.model_name = model.name();
    report::PlanReport report = report::build_report(tg, result, opts, ropts);
    if (!args.diff_baseline.empty()) {
      std::string name;
      if (args.diff_baseline == "dp") name = "DP";
      if (args.diff_baseline == "megatron") name = "Megatron";
      if (args.diff_baseline == "mha") name = "MHA";
      if (args.diff_baseline == "ffn") name = "FFN";
      // parse() rejected anything else.
      auto theirs =
          baselines::named_expert_plan(name, tg, opts.cluster.world());
      if (!sharding::route_plan(tg, theirs).valid) {
        std::cerr << "baseline " << name
                  << " does not route on this model, skipping diff\n";
      } else {
        report::attach_baseline_diff(&report, tg, result, theirs, name,
                                     opts);
      }
    }
    std::cout << report::to_text(report);
    if (!args.report_path.empty()) {
      if (!write_file(args.report_path, report::to_json(report) + "\n",
                      "report"))
        return 1;
      std::printf("report written to %s\n", args.report_path.c_str());
    }
  }

  if (!args.plan_json_path.empty()) {
    // Canonical plan-response bytes (service/wire.h). In serve mode this
    // is the verbatim server body; offline it is built in process — the
    // determinism contract says the two are identical, and the serve-smoke
    // CI job cmp's them.
    if (!result.provenance.complete()) {
      // A deadlined run can reach here with an anytime/fallback plan; the
      // emitted bytes carry the provenance field, but scripts that only
      // grab the plan must not mistake a degraded plan for a complete one.
      std::cerr << "warning: plan provenance is "
                << core::plan_source_name(result.provenance.source)
                << ", not complete — the --plan-json bytes describe a "
                   "degraded plan\n";
    }
    const std::string bytes =
        !served_plan_body.empty()
            ? served_plan_body
            : service::plan_response_json(tg, wire_key, result);
    if (args.plan_json_path == "-") {
      std::cout << bytes << "\n";
    } else {
      if (!write_file(args.plan_json_path, bytes, "plan json")) return 1;
      std::printf("plan response written to %s\n",
                  args.plan_json_path.c_str());
    }
  }
  if (!args.trace_path.empty()) {
    if (!write_file(args.trace_path, trace.to_chrome_json(), "trace"))
      return 1;
    std::printf("trace written to %s (open in chrome://tracing)\n",
                args.trace_path.c_str());
  }
  if (!args.profile_path.empty()) {
    // Re-base the simulated step onto the session timeline (pid 1), then
    // export planner + service + simulator as one Chrome trace.
    trace.append_to(session);
    session.stop();
    if (!write_file(args.profile_path, session.to_chrome_json(), "profile"))
      return 1;
    std::printf("profile written to %s (%zu events; open in "
                "chrome://tracing or https://ui.perfetto.dev)\n",
                args.profile_path.c_str(), session.events().size());
  }
  if (!args.stats_path.empty()) {
    if (args.stats_path == "-") {
      std::cout << obs::dump_json() << "\n";
    } else {
      if (!write_file(args.stats_path, obs::dump_json() + "\n", "stats"))
        return 1;
      std::printf("stats written to %s\n", args.stats_path.c_str());
    }
  }
  return 0;
}
