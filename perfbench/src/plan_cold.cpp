// plan_cold: in-process cold planning of a fixed zoo on a 2x8 V100
// cluster with the mesh sweep. One op is ir::lower plus
// core::auto_parallel_best_mesh on one planner thread; models are taken
// round-robin in a seeded order. One planner thread, not one per hardware
// thread: on a shared host a parallel sweep times the scheduler as much
// as the planner. Before each op the calibration task runs once on the
// same thread, and op times are reported in reference ms (calib.h).
//
// The traced run alternates an untraced op and a traced op of the same
// model: the traced op replays the
// mesh sweep by calling pruning::prune_graph once and then each
// PlannerPipeline::standard() pass over a PlanContext per (dp, tp)
// factorization, exactly as auto_parallel_best_mesh does. The run is
// invalid when the mean traced op drifts from the mean untraced call by
// more than kMaxReplayGap, i.e. when the replay stopped following the
// real sweep. After each traced op, two probes outside the op time one
// full-graph sharding::route_plan of the chosen plan and
// cost::comm_cost_batch over batches staged from the chosen mesh's family
// candidates.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "calib.h"
#include "common.h"
#include "core/planner_pipeline.h"
#include "core/tap.h"
#include "cost/comm_batch.h"
#include "ir/lowering.h"
#include "obs/metrics.h"
#include "pruning/prune.h"
#include "service/fingerprint.h"
#include "service/wire.h"
#include "sharding/enumerate.h"
#include "sharding/plan.h"
#include "sharding/routing.h"
#include "sim/simulator.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace tap;

/// Candidates staged per family, and batches timed per op, by the cost
/// probe.
constexpr int kProbeCandidatesPerFamily = 64;
constexpr int kProbeBatchesPerOp = 32;

/// Scheduled ops plan_step_ms is averaged over; not a multiple of the
/// zoo size, so the seed picks which models weigh once more.
constexpr std::size_t kStepOps = 1000;

/// Repetitions of the set-up; setup_s is their median. Each is preceded
/// by kSetupCalibrations runs of the calibration task.
constexpr int kSetups = 5;
constexpr int kSetupCalibrations = 3;

/// The traced op replays auto_parallel_best_mesh pass by pass. When the
/// mean traced op and the mean real call (both on one planner thread)
/// differ by more than this share, the replay no longer does what the
/// real call does and the run is invalid.
constexpr double kMaxReplayGap = 0.05;

struct ZooModel {
  std::string name;
  service::ModelSpec spec;
  Graph graph;
  service::PlanKey key;
  std::string reference;  ///< plan bytes of the threads=1 search
  double step_ms = 0.0;   ///< simulated training step of that plan
};

std::vector<service::ModelSpec> zoo_specs() {
  struct Row {
    const char* model;
    int layers;
  };
  const Row rows[] = {{"t5", 8},   {"t5", 24},  {"t5", 48},      {"bert", 24},
                      {"gpt3", 8}, {"moe", 8}, {"resnet50", 50}};
  std::vector<service::ModelSpec> specs;
  for (const Row& r : rows) {
    service::ModelSpec s;  // defaults: 2 nodes x 8 GPUs, mesh sweep
    s.model = r.model;
    s.layers = r.layers;
    specs.push_back(s);
  }
  return specs;
}

std::string model_name(const service::ModelSpec& s) {
  if (s.model == "resnet50") return s.model;
  return s.model + "_" + std::to_string(s.layers) + "l";
}

/// The mesh sweep of auto_parallel_best_mesh, pass by pass, with a span
/// around each call. Returns the result auto_parallel_best_mesh would and
/// hands back the winning mesh's context for the probes.
core::TapResult traced_sweep(const ir::TapGraph& tg,
                             const core::TapOptions& opts, Tracer* t,
                             std::unique_ptr<core::PlanContext>* winner) {
  pruning::PruneResult shared;
  {
    SpanScope s(t, "pruning.prune_graph");
    shared = pruning::prune_graph(tg, opts.prune);
  }
  const core::PlannerPipeline pipeline = core::PlannerPipeline::standard();
  const int world = opts.cluster.world();
  std::vector<int> tps;
  for (int tp = 1; tp <= world; ++tp)
    if (world % tp == 0) tps.push_back(tp);

  core::TapResult best;
  bool have = false;
  core::SearchStats total;
  for (int tp : tps) {
    auto ctx = std::make_unique<core::PlanContext>();
    ctx->tg = &tg;
    ctx->opts = opts;
    ctx->opts.num_shards = tp;
    ctx->opts.dp_replicas = world / tp;
    ctx->opts.threads = 1;
    ctx->shared_pruning = &shared;
    for (std::size_t i = 0; i < pipeline.size(); ++i) {
      const core::PlannerPass& pass = pipeline.pass(i);
      SpanScope s(t, pass_span_name(pass.name()));
      pass.run(*ctx);
    }
    ctx->shared_pruning = nullptr;
    total.merge(ctx->stats);
    if (!ctx->routed.valid) continue;
    if (!have || ctx->cost.total() < best.cost.total()) {
      have = true;
      best.best_plan = ctx->plan;
      best.routed = ctx->routed;
      best.cost = ctx->cost;
      *winner = std::move(ctx);
    }
  }
  if (!have) throw std::runtime_error("no mesh produced a valid plan");
  best.candidate_plans = total.candidate_plans;
  best.valid_plans = total.valid_plans;
  best.nodes_visited = total.nodes_visited;
  best.cost_queries = total.cost_queries;
  return best;
}

/// Times cost::comm_cost_batch over full batches of candidates staged from
/// the winning mesh's families. Returns the number of batches timed.
int cost_probe(const ir::TapGraph& tg, const core::PlanContext& ctx,
               Tracer* t) {
  const core::FamilySearchContext fsc(tg, ctx.opts, *ctx.table);
  auto arena = std::make_unique<cost::CostArena>();
  int batches = 0;
  for (const pruning::SubgraphFamily& family : ctx.pruning.families) {
    if (batches >= kProbeBatchesPerOp) break;
    sharding::ShardingPlan scratch = ctx.plan;
    sharding::FamilyPlanEnumerator candidates(tg, family, ctx.opts.num_shards);
    std::vector<int> choice;
    arena->batch.reset();
    for (int n = 0; n < kProbeCandidatesPerFamily && candidates.next(&choice);
         ++n) {
      sharding::apply_family_choice(family, choice, &scratch);
      std::int64_t weight_bytes = 0;
      core::SearchStats stats;
      if (!fsc.stage(scratch, family, arena.get(), &weight_bytes, &stats))
        continue;
      if (!arena->batch.full()) continue;
      {
        SpanScope s(t, "cost.comm_cost_batch");
        cost::comm_cost_batch(arena->batch, ctx.opts.cluster, arena->results);
      }
      arena->batch.reset();
      if (++batches >= kProbeBatchesPerOp) break;
    }
  }
  return batches;
}

/// Set-up: generating the zoo's graphs (graph/models) and each model's
/// reference, the plan bytes of a threads=1 search. Repeated kSetups
/// times so setup_s is a median (in reference seconds, from calibration
/// runs between the repetitions); every repetition must give the same
/// bytes. The simulated step of each reference plan is computed once,
/// outside the timed set-up.
std::vector<ZooModel> build_zoo(RunResult* out) {
  const std::vector<service::ModelSpec> specs = zoo_specs();
  std::vector<double> setup_s;
  HostSpeed speed;
  std::vector<ZooModel> zoo;
  std::vector<core::TapResult> results(specs.size());
  for (int rep = 0; rep < kSetups; ++rep) {
    for (int c = 0; c < kSetupCalibrations; ++c) speed.sample(rep);
    std::vector<ZooModel> built;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ZooModel m;
      m.name = model_name(specs[i]);
      m.spec = specs[i];
      m.graph = service::build_spec_model(specs[i]);
      const ir::TapGraph tg = ir::lower(m.graph);
      const core::TapOptions o = service::options_for_spec(m.spec, 1);
      results[i] = core::auto_parallel_best_mesh(tg, o);
      m.key = service::make_plan_key(tg, o, /*sweep_mesh=*/true);
      m.reference = service::plan_response_json(tg, m.key, results[i]);
      built.push_back(std::move(m));
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    for (std::size_t i = 0; i < zoo.size(); ++i) {
      if (built[i].reference != zoo[i].reference)
        throw std::runtime_error(zoo[i].name +
                                 ": set-ups gave different reference plans");
    }
    zoo = std::move(built);
  }
  out->metrics["setup_s"] = median(setup_s) * speed.scale();

  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const ir::TapGraph tg = ir::lower(zoo[i].graph);
    zoo[i].step_ms =
        sim::simulate_step(tg, results[i].routed,
                           results[i].best_plan.num_shards,
                           service::options_for_spec(zoo[i].spec, 1).cluster)
            .iteration_s *
        1e3;
  }
  return zoo;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng(seed ^ 0x9c01dull);
  shuffle(order, rng);
  return order;
}

RunResult run_untraced(const Options& opts) {
  RunResult out;
  std::vector<ZooModel> zoo = build_zoo(&out);
  const std::vector<std::size_t> order = seeded_order(zoo.size(), opts.seed);

  std::vector<Sample> samples, cpu;
  HostSpeed speed;
  std::vector<std::vector<Sample>> search_ms(zoo.size());
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opts.seconds));
  for (std::size_t k = 0; Clock::now() < deadline; ++k) {
    const std::size_t mi = order[k % order.size()];
    const ZooModel& m = zoo[mi];
    const core::TapOptions o = service::options_for_spec(m.spec, 1);
    speed.sample(ms_between(start, Clock::now()) / 1e3);
    const double c0 = thread_cpu_ms();
    const auto t0 = Clock::now();
    const ir::TapGraph tg = ir::lower(m.graph);
    const auto t1 = Clock::now();
    const core::TapResult r = core::auto_parallel_best_mesh(tg, o);
    const auto t2 = Clock::now();
    const double c2 = thread_cpu_ms();
    ++out.attempted;
    const double start_s = ms_between(start, t0) / 1e3;
    if (service::plan_response_json(tg, m.key, r) != m.reference) {
      ++out.failed;
      samples.push_back({start_s, std::numeric_limits<double>::infinity()});
      cpu.push_back(samples.back());
      continue;
    }
    samples.push_back({start_s, ms_between(t0, t2)});
    cpu.push_back({start_s, c2 - c0});
    search_ms[mi].push_back({start_s, ms_between(t1, t2)});
  }
  to_reference(&samples, speed, opts.seconds);
  to_reference(&cpu, speed, opts.seconds);
  for (std::vector<Sample>& s : search_ms) to_reference(&s, speed, opts.seconds);
  // Over a fixed-length prefix of the schedule (every op gives its
  // model's reference plan, or counts as failed), so the figure depends
  // on the seed and the plans chosen, not on how many ops fit in the run.
  std::vector<double> step_ms;
  for (std::size_t k = 0; k < kStepOps; ++k)
    step_ms.push_back(zoo[order[k % order.size()]].step_ms);

  std::vector<double> model_search;
  std::string per_model = "median search, ref ms:";
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    if (search_ms[i].empty()) continue;
    std::vector<double> ms;
    for (const Sample& x : search_ms[i]) ms.push_back(x.ms);
    model_search.push_back(median(ms));
    per_model += format(" %s=%.2f(n=%zu)", zoo[i].name.c_str(),
                        model_search.back(), search_ms[i].size());
  }
  // Plans per second of planning: the checks between ops do not count.
  double busy_s = 0.0;
  for (const Sample& x : samples) busy_s += std::isfinite(x.ms) ? x.ms / 1e3 : 0.0;
  out.metrics["ops_per_s"] = static_cast<double>(samples.size()) / busy_s;
  out.metrics["cpu_ms_per_op"] = mean_ms(cpu);
  std::string cpu_note = format("op CPU time, ref ms: mean %.4g;", mean_ms(cpu));
  percentile_ms(cpu, 0.50, &cpu_note);
  // The tail metric is the p90: a run holds about 1000 ops, so its p99
  // rests on the ten slowest, and which ops those are moves it by a sixth
  // from run to run.
  out.metrics["cpu_p90_ms"] = percentile_ms(cpu, 0.90, &cpu_note);
  percentile_ms(cpu, 0.99, &cpu_note);
  std::string latency_note = "op latency, ref ms:";
  percentile_ms(samples, 0.50, &latency_note);
  percentile_ms(samples, 0.99, &latency_note);
  out.metrics["search_ms_geomean"] = geomean(model_search);
  out.metrics["plan_step_ms"] = geomean(step_ms);
  out.notes.push_back(format("plan_cold: %lld ops on 1 planner thread; "
                             "calibration task median %.3f ms (reference "
                             "%.1f ms)",
                             static_cast<long long>(out.attempted),
                             speed.median_ms(), kCalibRefMs));
  out.notes.push_back(per_model);
  out.notes.push_back(cpu_note);
  out.notes.push_back(latency_note);
  return out;
}

RunResult run_traced(const Options& opts) {
  RunResult out;
  std::vector<ZooModel> zoo = build_zoo(&out);
  out.metrics.clear();  // set-up time is an end-to-end metric
  const std::vector<std::size_t> order = seeded_order(zoo.size(), opts.seed);
  obs::Counter* batches = obs::registry().counter("cost.batches");
  obs::Counter* lanes = obs::registry().counter("cost.candidates_batched");

  Tracer tracer;
  std::vector<double> untraced_ms;
  std::vector<std::uint64_t> ops;
  double candidates = 0, valid = 0, batch_count = 0, lane_count = 0;
  int probe_batches = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
    const ZooModel& m = zoo[order[k % order.size()]];
    const core::TapOptions o = service::options_for_spec(m.spec, 1);

    // The untraced op, on the same thread count, gives the tracing
    // overhead; the two alternate which runs first.
    auto untraced = [&] {
      const auto t0 = Clock::now();
      const ir::TapGraph tg = ir::lower(m.graph);
      const core::TapResult r = core::auto_parallel_best_mesh(tg, o);
      untraced_ms.push_back(ms_between(t0, Clock::now()));
      ++out.attempted;
      if (service::plan_response_json(tg, m.key, r) != m.reference)
        ++out.failed;
    };
    if (k % 2 == 0) untraced();

    const std::uint64_t op = k + 1;
    tracer.begin_op(op);
    const std::uint64_t b0 = batches->value(), l0 = lanes->value();
    std::unique_ptr<core::PlanContext> winner;
    std::unique_ptr<ir::TapGraph> tg;
    core::TapResult r;
    {
      SpanScope op_span(&tracer, "op");
      {
        SpanScope s(&tracer, "ir.lower");
        tg = std::make_unique<ir::TapGraph>(ir::lower(m.graph));
      }
      r = traced_sweep(*tg, o, &tracer, &winner);
    }
    batch_count += static_cast<double>(batches->value() - b0);
    lane_count += static_cast<double>(lanes->value() - l0);
    candidates += static_cast<double>(r.candidate_plans);
    valid += static_cast<double>(r.valid_plans);
    ++out.attempted;
    if (service::plan_response_json(*tg, m.key, r) != m.reference)
      ++out.failed;
    ops.push_back(op);
    if (k % 2 == 1) untraced();

    tracer.begin_op(op | kProbeOp);
    {
      SpanScope s(&tracer, "sharding.route_plan");
      if (!sharding::route_plan(*tg, r.best_plan).valid) ++out.failed;
    }
    probe_batches += cost_probe(*tg, *winner, &tracer);
  }

  const std::vector<const Tracer*> tracers = {&tracer};
  const OpLayers layers = self_times(tracers);
  const std::map<std::uint64_t, double> op_us =
      span_durations(tracers, "op");
  const std::map<std::string, double> per_op = mean_self_ms(layers, ops);
  std::vector<double> traced_ms;
  for (std::uint64_t op : ops) traced_ms.push_back(op_us.at(op) / 1e3);
  double route_us = 0, cost_us = 0;
  std::size_t route_n = 0;
  for (const auto& [op, by_name] : layers) {
    if ((op & kProbeOp) == 0) continue;
    if (auto it = by_name.find("sharding.route_plan"); it != by_name.end()) {
      route_us += it->second;
      ++route_n;
    }
    if (auto it = by_name.find("cost.comm_cost_batch"); it != by_name.end())
      cost_us += it->second;
  }

  const double n = static_cast<double>(ops.size());
  auto& mt = out.metrics;
  for (const auto& [name, ms] : per_op)
    mt[name == "op" ? "unattributed_ms" : name + "_ms"] = ms;
  mt["trace.op_ms"] = mean(traced_ms);
  mt["trace.untraced_op_ms"] = mean(untraced_ms);
  mt["trace.overhead_ms"] = mean(traced_ms) - mean(untraced_ms);
  if (std::abs(mt["trace.overhead_ms"]) > kMaxReplayGap * mean(untraced_ms)) {
    out.correct = false;
    out.notes.push_back(format(
        "plan_cold traced: run invalid, the traced replay (%.3f ms) and "
        "auto_parallel_best_mesh (%.3f ms) differ by more than %.0f%%",
        mean(traced_ms), mean(untraced_ms), kMaxReplayGap * 100));
  }
  mt["sharding.route_plan_ms"] = route_n ? route_us / 1e3 / route_n : 0.0;
  mt["cost.comm_cost_batch_us"] = probe_batches ? cost_us / probe_batches : 0.0;
  mt["planner.family.candidates"] = candidates / n;
  mt["planner.family.valid_plans"] = valid / n;
  mt["planner.family.valid_ratio"] = candidates > 0 ? valid / candidates : 0.0;
  mt["cost.batches"] = batch_count / n;
  mt["cost.candidates_batched"] = lane_count / n;
  mt["cost.lanes_per_batch"] = batch_count > 0 ? lane_count / batch_count : 0.0;

  out.notes.push_back(format(
      "plan_cold traced: %zu traced + %zu untraced ops on 1 planner thread",
      ops.size(), untraced_ms.size()));
  out.notes.push_back(accounting_line(per_op, mean(traced_ms)));
  if (!opts.spans_out.empty() && !write_spans(opts.spans_out, tracers))
    out.notes.push_back("warning: could not write " + opts.spans_out);
  return out;
}

}  // namespace

RunResult run_plan_cold(const Options& opts) {
  return opts.trace ? run_traced(opts) : run_untraced(opts);
}

}  // namespace perfbench
