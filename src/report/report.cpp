#include "report/report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "core/planner_pipeline.h"
#include "obs/metrics.h"
#include "sharding/enumerate.h"
#include "sharding/pattern.h"
#include "util/check.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table.h"

namespace tap::report {

namespace {

// v2: added the "provenance" object (plan source, search coverage).
constexpr int kReportVersion = 2;

std::string ms(double seconds) { return util::fmt("%.3f", seconds * 1e3); }

std::string mesh_string(int dp, int tp) {
  return std::to_string(dp) + "x" + std::to_string(tp);
}

// Busy intervals of one lane, merged into a sorted disjoint cover.
std::vector<std::pair<double, double>> lane_cover(const sim::Trace& trace,
                                                  int lane,
                                                  double makespan_s) {
  std::vector<std::pair<double, double>> spans;
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.lane != lane || e.duration_s <= 0.0) continue;
    const double a = std::max(0.0, e.start_s);
    const double b = std::min(makespan_s, e.start_s + e.duration_s);
    if (b > a) spans.emplace_back(a, b);
  }
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& s : spans) {
    if (!merged.empty() && s.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, s.second);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

bool covers(const std::vector<std::pair<double, double>>& cover, double t) {
  auto it = std::upper_bound(
      cover.begin(), cover.end(), t,
      [](double v, const std::pair<double, double>& s) { return v < s.first; });
  return it != cover.begin() && t < std::prev(it)->second;
}

}  // namespace

std::string_view interval_kind_name(IntervalKind k) {
  switch (k) {
    case IntervalKind::kCompute:
      return "compute";
    case IntervalKind::kExposedComm:
      return "exposed_comm";
    case IntervalKind::kBubble:
      return "bubble";
  }
  return "bubble";
}

namespace {

IntervalKind interval_kind_from_name(std::string_view name) {
  if (name == "compute") return IntervalKind::kCompute;
  if (name == "exposed_comm") return IntervalKind::kExposedComm;
  TAP_CHECK(name == "bubble") << "unknown interval kind '"
                              << std::string(name) << "'";
  return IntervalKind::kBubble;
}

}  // namespace

CriticalPath analyze_critical_path(const sim::Trace& trace,
                                   double makespan_s) {
  CriticalPath cp;
  cp.makespan_s = makespan_s;
  if (makespan_s <= 0.0) return cp;

  const auto compute = lane_cover(trace, 0, makespan_s);
  const auto comm = lane_cover(trace, 1, makespan_s);

  // Segment [0, makespan] at every cover boundary, classify each segment
  // at its midpoint, then merge runs of the same kind. The segments tile
  // the makespan exactly, so the three kind totals sum to it.
  std::vector<double> points{0.0, makespan_s};
  for (const auto& s : compute) {
    points.push_back(s.first);
    points.push_back(s.second);
  }
  for (const auto& s : comm) {
    points.push_back(s.first);
    points.push_back(s.second);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const double a = points[i];
    const double b = points[i + 1];
    if (b <= a || a >= makespan_s) continue;
    const double mid = a + (b - a) / 2.0;
    IntervalKind kind = IntervalKind::kBubble;
    if (covers(compute, mid)) {
      kind = IntervalKind::kCompute;
    } else if (covers(comm, mid)) {
      kind = IntervalKind::kExposedComm;
    }
    if (!cp.intervals.empty() && cp.intervals.back().kind == kind &&
        cp.intervals.back().end_s == a) {
      cp.intervals.back().end_s = b;
    } else {
      cp.intervals.push_back({a, b, kind});
    }
  }
  for (const Interval& iv : cp.intervals) {
    const double len = iv.end_s - iv.start_s;
    switch (iv.kind) {
      case IntervalKind::kCompute:
        cp.compute_s += len;
        break;
      case IntervalKind::kExposedComm:
        cp.exposed_comm_s += len;
        break;
      case IntervalKind::kBubble:
        cp.bubble_s += len;
        break;
    }
  }

  // Walk the recorded dependency chain back from the last-finishing event.
  const auto& events = trace.events();
  std::int64_t tail = -1;
  double best_finish = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double finish = events[i].start_s + events[i].duration_s;
    if (finish > best_finish) {
      best_finish = finish;
      tail = static_cast<std::int64_t>(i);
    }
  }
  for (std::int64_t i = tail; i >= 0;) {
    const sim::TraceEvent& e = events[static_cast<std::size_t>(i)];
    cp.steps.push_back({e.name, e.category, e.lane, e.start_s, e.duration_s});
    // Preds always point backwards; a malformed chain terminates the walk
    // instead of looping.
    i = e.pred < i ? e.pred : -1;
  }
  std::reverse(cp.steps.begin(), cp.steps.end());
  return cp;
}

// ---------------------------------------------------------------------------
// build_report
// ---------------------------------------------------------------------------

namespace {

struct ScopeInfo {
  std::string scope;
  int multiplicity = 1;
};

// GraphNode -> owning family scope (the family representative). Falls
// back to per-node scopes when pruning found no families.
std::vector<ScopeInfo> node_scopes(const ir::TapGraph& tg,
                                   const pruning::PruneResult& pruning) {
  std::vector<ScopeInfo> scopes(tg.num_nodes());
  for (std::size_t i = 0; i < scopes.size(); ++i)
    scopes[i] = {tg.node(static_cast<ir::GraphNodeId>(i)).name, 1};
  for (const pruning::SubgraphFamily& f : pruning.families) {
    for (const auto& instance : f.instance_nodes)
      for (ir::GraphNodeId id : instance)
        scopes[static_cast<std::size_t>(id)] = {f.representative,
                                                f.multiplicity()};
  }
  return scopes;
}

std::vector<CommContributor> aggregate_contributors(
    const ir::TapGraph& tg, const pruning::PruneResult& pruning,
    const cost::CommLedger& ledger, int top_k, std::int64_t* total_scopes) {
  const std::vector<ScopeInfo> scopes = node_scopes(tg, pruning);
  std::map<std::string, CommContributor> by_scope;
  for (const cost::CommLedgerEntry& e : ledger.entries) {
    ScopeInfo info{"(unattributed)", 1};
    if (e.node != ir::kInvalidGraphNode &&
        static_cast<std::size_t>(e.node) < scopes.size())
      info = scopes[static_cast<std::size_t>(e.node)];
    CommContributor& c = by_scope[info.scope];
    c.scope = info.scope;
    c.multiplicity = info.multiplicity;
    c.events += 1;
    c.bytes += e.bytes;
    c.seconds += e.seconds;
    c.exposed_seconds += e.exposed_seconds;
  }
  std::vector<CommContributor> all;
  all.reserve(by_scope.size());
  for (auto& [scope, c] : by_scope) all.push_back(std::move(c));
  std::stable_sort(all.begin(), all.end(),
                   [](const CommContributor& a, const CommContributor& b) {
                     if (a.exposed_seconds != b.exposed_seconds)
                       return a.exposed_seconds > b.exposed_seconds;
                     if (a.seconds != b.seconds) return a.seconds > b.seconds;
                     return a.scope < b.scope;
                   });
  *total_scopes = static_cast<std::int64_t>(all.size());
  if (top_k > 0 && all.size() > static_cast<std::size_t>(top_k)) {
    CommContributor other;
    other.scope = "(other)";
    other.multiplicity = 0;
    for (std::size_t i = static_cast<std::size_t>(top_k); i < all.size();
         ++i) {
      other.events += all[i].events;
      other.bytes += all[i].bytes;
      other.seconds += all[i].seconds;
      other.exposed_seconds += all[i].exposed_seconds;
    }
    all.resize(static_cast<std::size_t>(top_k));
    all.push_back(std::move(other));
  }
  return all;
}

/// Candidate counts per family, from the pattern table of the plan's mesh
/// (the catalog the search enumerated).
PruningAttribution attribute_pruning(const sharding::PatternTable& table,
                                     const pruning::PruneResult& pruning) {
  PruningAttribution a;
  a.fold_depth = pruning.fold_depth;
  a.families = static_cast<std::int64_t>(pruning.families.size());
  for (const pruning::SubgraphFamily& f : pruning.families) {
    const int m = f.multiplicity();
    if (m > 1) ++a.folded_families;
    a.duplicate_instances += m - 1;
    const std::int64_t plans =
        sharding::FamilyPlanEnumerator(table, f).total_plans();
    a.plans_with_pruning += plans;
    a.plans_without_pruning += plans * m;
  }
  a.search_space_reduction =
      a.plans_with_pruning > 0
          ? static_cast<double>(a.plans_without_pruning) /
                static_cast<double>(a.plans_with_pruning)
          : 1.0;
  return a;
}

std::vector<LatencySummary> collect_latency() {
  std::vector<LatencySummary> out;
  obs::MetricsRegistry& reg = obs::registry();
  for (const std::string& name : reg.histogram_names()) {
    if (name.size() < 3 || name.compare(name.size() - 3, 3, "_ms") != 0)
      continue;
    const obs::Histogram* h = reg.histogram(name);
    if (h->count() == 0) continue;
    LatencySummary s;
    s.metric = name;
    s.count = h->count();
    s.p50 = obs::histogram_quantile(*h, 0.50);
    s.p95 = obs::histogram_quantile(*h, 0.95);
    s.p99 = obs::histogram_quantile(*h, 0.99);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

PlanReport build_report(const ir::TapGraph& tg,
                        const core::TapResult& result,
                        const core::TapOptions& opts,
                        const ReportOptions& ropts) {
  TAP_CHECK(result.routed.valid) << "cannot report an invalid plan";
  PlanReport r;
  r.model = !ropts.model_name.empty() ? ropts.model_name : tg.name();
  r.dp_replicas = result.best_plan.dp_replicas;
  r.num_shards = result.best_plan.num_shards;
  r.provenance = result.provenance;

  cost::CommLedger ledger;
  // FinalizeCost's recipe, so the ledger sums match TapResult::cost
  // exactly.
  r.cost = core::finalize_cost(tg, result.routed, opts, &ledger);
  r.exposed_fraction = ledger.exposed_fraction;
  r.contributors = aggregate_contributors(tg, result.pruning, ledger,
                                          ropts.top_k, &r.contributor_scopes);
  r.pruning = attribute_pruning(
      sharding::PatternTable(tg, r.num_shards, r.dp_replicas), result.pruning);

  sim::Trace trace;
  sim::SimOptions sopts = ropts.sim;
  sopts.trace = &trace;
  r.step = sim::simulate_step(tg, result.routed, r.num_shards, opts.cluster,
                              sopts);
  r.critical_path = analyze_critical_path(trace, r.step.iteration_s);

  r.search_seconds = result.search_seconds;
  if (ropts.latency_section) r.latency = collect_latency();
  return r;
}

void attach_baseline_diff(PlanReport* r, const ir::TapGraph& tg,
                          const core::TapResult& result,
                          const sharding::ShardingPlan& theirs,
                          const std::string& baseline_name,
                          const core::TapOptions& opts) {
  TAP_CHECK(r != nullptr);
  const sharding::ShardingPlan& ours = result.best_plan;
  sharding::RoutedPlan routed_theirs = sharding::route_plan(tg, theirs);
  TAP_CHECK(routed_theirs.valid)
      << "baseline '" << baseline_name
      << "' does not route: " << routed_theirs.error;

  cost::CommLedger ledger_ours, ledger_theirs;
  const cost::PlanCost cost_ours =
      core::finalize_cost(tg, result.routed, opts, &ledger_ours);
  const cost::PlanCost cost_theirs =
      core::finalize_cost(tg, routed_theirs, opts, &ledger_theirs);

  std::vector<double> exposed_ours, exposed_theirs;
  std::vector<std::int64_t> bytes_ours, bytes_theirs;
  ledger_ours.per_node(tg.num_nodes(), &exposed_ours, &bytes_ours);
  ledger_theirs.per_node(tg.num_nodes(), &exposed_theirs, &bytes_theirs);

  PlanDiff diff;
  diff.baseline = baseline_name;
  diff.mesh_ours = mesh_string(ours.dp_replicas, ours.num_shards);
  diff.mesh_theirs = mesh_string(theirs.dp_replicas, theirs.num_shards);
  diff.total_ours_s = cost_ours.total();
  diff.total_theirs_s = cost_theirs.total();

  auto pattern_name = [&](ir::GraphNodeId id,
                          const sharding::ShardingPlan& plan) -> std::string {
    const auto pats =
        sharding::patterns_for(tg, id, plan.num_shards, plan.dp_replicas);
    const int idx = plan.choice[static_cast<std::size_t>(id)];
    if (idx < 0 || static_cast<std::size_t>(idx) >= pats.size()) return "?";
    return pats[static_cast<std::size_t>(idx)].name;
  };
  auto add_entry = [&](std::string scope, int multiplicity,
                       ir::GraphNodeId rep,
                       const std::vector<ir::GraphNodeId>& instances) {
    PlanDiffEntry e;
    e.scope = std::move(scope);
    e.multiplicity = multiplicity;
    e.pattern_ours = pattern_name(rep, ours);
    e.pattern_theirs = pattern_name(rep, theirs);
    e.differs = e.pattern_ours != e.pattern_theirs;
    for (ir::GraphNodeId id : instances) {
      const auto i = static_cast<std::size_t>(id);
      e.bytes_ours += bytes_ours[i];
      e.bytes_theirs += bytes_theirs[i];
      e.exposed_ours_s += exposed_ours[i];
      e.exposed_theirs_s += exposed_theirs[i];
    }
    diff.entries.push_back(std::move(e));
  };

  if (!result.pruning.families.empty()) {
    for (const pruning::SubgraphFamily& f : result.pruning.families) {
      for (std::size_t j = 0; j < f.member_nodes.size(); ++j) {
        if (!tg.node(f.member_nodes[j]).has_weight()) continue;
        std::string scope = f.relnames[j] == "."
                                ? f.representative
                                : f.representative + f.relnames[j];
        std::vector<ir::GraphNodeId> instances;
        instances.reserve(f.instance_nodes.size());
        for (const auto& inst : f.instance_nodes)
          instances.push_back(inst[j]);
        add_entry(std::move(scope), f.multiplicity(), f.member_nodes[j],
                  instances);
      }
    }
  } else {
    for (ir::GraphNodeId id : tg.weight_nodes())
      add_entry(tg.node(id).name, 1, id, {id});
  }
  r->diff = std::move(diff);
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

namespace {

util::JsonValue num(double v) { return util::JsonValue::number(v); }
util::JsonValue num(std::int64_t v) {
  return util::JsonValue::number(static_cast<double>(v));
}
util::JsonValue str(std::string s) {
  return util::JsonValue::string(std::move(s));
}

util::JsonValue cost_to_json(const cost::PlanCost& c,
                             double exposed_fraction) {
  util::JsonValue o = util::JsonValue::object();
  o.set("forward_comm_s", num(c.forward_comm_s));
  o.set("backward_comm_s", num(c.backward_comm_s));
  o.set("overlappable_comm_s", num(c.overlappable_comm_s));
  o.set("comm_bytes", num(c.comm_bytes));
  o.set("total_s", num(c.total()));
  o.set("exposed_fraction", num(exposed_fraction));
  return o;
}

util::JsonValue step_to_json(const sim::StepBreakdown& s) {
  util::JsonValue o = util::JsonValue::object();
  o.set("iteration_s", num(s.iteration_s));
  o.set("forward_compute_s", num(s.forward_compute_s));
  o.set("backward_compute_s", num(s.backward_compute_s));
  o.set("update_s", num(s.update_s));
  o.set("comm_s", num(s.comm_s));
  o.set("exposed_comm_s", num(s.exposed_comm_s));
  o.set("comm_messages", num(static_cast<std::int64_t>(s.comm_messages)));
  util::JsonValue mem = util::JsonValue::object();
  mem.set("weight_bytes", num(s.memory.weight_bytes));
  mem.set("gradient_bytes", num(s.memory.gradient_bytes));
  mem.set("optimizer_bytes", num(s.memory.optimizer_bytes));
  mem.set("activation_bytes", num(s.memory.activation_bytes));
  mem.set("total_bytes", num(s.memory.total()));
  o.set("memory", std::move(mem));
  return o;
}

util::JsonValue critical_path_to_json(const CriticalPath& cp) {
  util::JsonValue o = util::JsonValue::object();
  o.set("makespan_s", num(cp.makespan_s));
  o.set("compute_s", num(cp.compute_s));
  o.set("exposed_comm_s", num(cp.exposed_comm_s));
  o.set("bubble_s", num(cp.bubble_s));
  util::JsonValue intervals = util::JsonValue::array();
  for (const Interval& iv : cp.intervals) {
    util::JsonValue e = util::JsonValue::object();
    e.set("start_s", num(iv.start_s));
    e.set("end_s", num(iv.end_s));
    e.set("kind", str(std::string(interval_kind_name(iv.kind))));
    intervals.push_back(std::move(e));
  }
  o.set("intervals", std::move(intervals));
  util::JsonValue steps = util::JsonValue::array();
  for (const CriticalStep& cs : cp.steps) {
    util::JsonValue e = util::JsonValue::object();
    e.set("name", str(cs.name));
    e.set("category", str(cs.category));
    e.set("lane", num(static_cast<std::int64_t>(cs.lane)));
    e.set("start_s", num(cs.start_s));
    e.set("duration_s", num(cs.duration_s));
    steps.push_back(std::move(e));
  }
  o.set("steps", std::move(steps));
  return o;
}

util::JsonValue diff_to_json(const PlanDiff& d) {
  util::JsonValue o = util::JsonValue::object();
  o.set("baseline", str(d.baseline));
  o.set("mesh_ours", str(d.mesh_ours));
  o.set("mesh_theirs", str(d.mesh_theirs));
  o.set("total_ours_s", num(d.total_ours_s));
  o.set("total_theirs_s", num(d.total_theirs_s));
  util::JsonValue entries = util::JsonValue::array();
  for (const PlanDiffEntry& e : d.entries) {
    util::JsonValue j = util::JsonValue::object();
    j.set("scope", str(e.scope));
    j.set("multiplicity", num(static_cast<std::int64_t>(e.multiplicity)));
    j.set("pattern_ours", str(e.pattern_ours));
    j.set("pattern_theirs", str(e.pattern_theirs));
    j.set("bytes_ours", num(e.bytes_ours));
    j.set("bytes_theirs", num(e.bytes_theirs));
    j.set("exposed_ours_s", num(e.exposed_ours_s));
    j.set("exposed_theirs_s", num(e.exposed_theirs_s));
    j.set("differs", util::JsonValue::boolean(e.differs));
    entries.push_back(std::move(j));
  }
  o.set("entries", std::move(entries));
  return o;
}

}  // namespace

std::string to_json(const PlanReport& r) {
  util::JsonValue o = util::JsonValue::object();
  o.set("version", num(static_cast<std::int64_t>(kReportVersion)));
  o.set("model", str(r.model));
  util::JsonValue mesh = util::JsonValue::array();
  mesh.push_back(num(static_cast<std::int64_t>(r.dp_replicas)));
  mesh.push_back(num(static_cast<std::int64_t>(r.num_shards)));
  o.set("mesh", std::move(mesh));
  util::JsonValue prov = util::JsonValue::object();
  prov.set("source", str(core::plan_source_name(r.provenance.source)));
  prov.set("families_searched", num(r.provenance.families_searched));
  prov.set("families_total", num(r.provenance.families_total));
  prov.set("meshes_searched", num(r.provenance.meshes_searched));
  prov.set("meshes_total", num(r.provenance.meshes_total));
  prov.set("deadline_hit",
           util::JsonValue::boolean(r.provenance.deadline_hit));
  prov.set("fallback_reason", str(r.provenance.fallback_reason));
  o.set("provenance", std::move(prov));
  o.set("cost", cost_to_json(r.cost, r.exposed_fraction));
  o.set("step", step_to_json(r.step));
  util::JsonValue contributors = util::JsonValue::array();
  for (const CommContributor& c : r.contributors) {
    util::JsonValue e = util::JsonValue::object();
    e.set("scope", str(c.scope));
    e.set("multiplicity", num(static_cast<std::int64_t>(c.multiplicity)));
    e.set("events", num(c.events));
    e.set("bytes", num(c.bytes));
    e.set("seconds", num(c.seconds));
    e.set("exposed_seconds", num(c.exposed_seconds));
    contributors.push_back(std::move(e));
  }
  o.set("contributors", std::move(contributors));
  o.set("contributor_scopes", num(r.contributor_scopes));
  util::JsonValue pruning = util::JsonValue::object();
  pruning.set("fold_depth",
              num(static_cast<std::int64_t>(r.pruning.fold_depth)));
  pruning.set("families", num(r.pruning.families));
  pruning.set("folded_families", num(r.pruning.folded_families));
  pruning.set("duplicate_instances", num(r.pruning.duplicate_instances));
  pruning.set("plans_with_pruning", num(r.pruning.plans_with_pruning));
  pruning.set("plans_without_pruning", num(r.pruning.plans_without_pruning));
  pruning.set("search_space_reduction",
              num(r.pruning.search_space_reduction));
  o.set("pruning", std::move(pruning));
  o.set("critical_path", critical_path_to_json(r.critical_path));
  if (r.diff.has_value()) o.set("diff", diff_to_json(*r.diff));
  return o.dump();
}

PlanReport from_json(const std::string& json) {
  const util::JsonValue doc = util::JsonValue::parse(json);
  TAP_CHECK(doc.at("version").as_int() == kReportVersion)
      << "unsupported report version " << doc.at("version").as_int();
  PlanReport r;
  r.model = doc.at("model").as_string();
  const auto& mesh = doc.at("mesh").items();
  TAP_CHECK(mesh.size() == 2) << "report mesh must be [dp, tp]";
  r.dp_replicas = static_cast<int>(mesh[0].as_int());
  r.num_shards = static_cast<int>(mesh[1].as_int());

  const util::JsonValue& prov = doc.at("provenance");
  r.provenance.source =
      core::plan_source_from_name(prov.at("source").as_string());
  r.provenance.families_searched = prov.at("families_searched").as_int();
  r.provenance.families_total = prov.at("families_total").as_int();
  r.provenance.meshes_searched = prov.at("meshes_searched").as_int();
  r.provenance.meshes_total = prov.at("meshes_total").as_int();
  r.provenance.deadline_hit = prov.at("deadline_hit").as_bool();
  r.provenance.fallback_reason = prov.at("fallback_reason").as_string();

  const util::JsonValue& cost = doc.at("cost");
  r.cost.forward_comm_s = cost.at("forward_comm_s").as_number();
  r.cost.backward_comm_s = cost.at("backward_comm_s").as_number();
  r.cost.overlappable_comm_s = cost.at("overlappable_comm_s").as_number();
  r.cost.comm_bytes = cost.at("comm_bytes").as_int();
  r.exposed_fraction = cost.at("exposed_fraction").as_number();

  const util::JsonValue& step = doc.at("step");
  r.step.iteration_s = step.at("iteration_s").as_number();
  r.step.forward_compute_s = step.at("forward_compute_s").as_number();
  r.step.backward_compute_s = step.at("backward_compute_s").as_number();
  r.step.update_s = step.at("update_s").as_number();
  r.step.comm_s = step.at("comm_s").as_number();
  r.step.exposed_comm_s = step.at("exposed_comm_s").as_number();
  r.step.comm_messages =
      static_cast<std::size_t>(step.at("comm_messages").as_int());
  const util::JsonValue& mem = step.at("memory");
  r.step.memory.weight_bytes = mem.at("weight_bytes").as_int();
  r.step.memory.gradient_bytes = mem.at("gradient_bytes").as_int();
  r.step.memory.optimizer_bytes = mem.at("optimizer_bytes").as_int();
  r.step.memory.activation_bytes = mem.at("activation_bytes").as_int();

  for (const util::JsonValue& e : doc.at("contributors").items()) {
    CommContributor c;
    c.scope = e.at("scope").as_string();
    c.multiplicity = static_cast<int>(e.at("multiplicity").as_int());
    c.events = e.at("events").as_int();
    c.bytes = e.at("bytes").as_int();
    c.seconds = e.at("seconds").as_number();
    c.exposed_seconds = e.at("exposed_seconds").as_number();
    r.contributors.push_back(std::move(c));
  }
  r.contributor_scopes = doc.at("contributor_scopes").as_int();

  const util::JsonValue& pruning = doc.at("pruning");
  r.pruning.fold_depth = static_cast<int>(pruning.at("fold_depth").as_int());
  r.pruning.families = pruning.at("families").as_int();
  r.pruning.folded_families = pruning.at("folded_families").as_int();
  r.pruning.duplicate_instances =
      pruning.at("duplicate_instances").as_int();
  r.pruning.plans_with_pruning = pruning.at("plans_with_pruning").as_int();
  r.pruning.plans_without_pruning =
      pruning.at("plans_without_pruning").as_int();
  r.pruning.search_space_reduction =
      pruning.at("search_space_reduction").as_number();

  const util::JsonValue& cp = doc.at("critical_path");
  r.critical_path.makespan_s = cp.at("makespan_s").as_number();
  r.critical_path.compute_s = cp.at("compute_s").as_number();
  r.critical_path.exposed_comm_s = cp.at("exposed_comm_s").as_number();
  r.critical_path.bubble_s = cp.at("bubble_s").as_number();
  for (const util::JsonValue& e : cp.at("intervals").items()) {
    Interval iv;
    iv.start_s = e.at("start_s").as_number();
    iv.end_s = e.at("end_s").as_number();
    iv.kind = interval_kind_from_name(e.at("kind").as_string());
    r.critical_path.intervals.push_back(iv);
  }
  for (const util::JsonValue& e : cp.at("steps").items()) {
    CriticalStep cs;
    cs.name = e.at("name").as_string();
    cs.category = e.at("category").as_string();
    cs.lane = static_cast<int>(e.at("lane").as_int());
    cs.start_s = e.at("start_s").as_number();
    cs.duration_s = e.at("duration_s").as_number();
    r.critical_path.steps.push_back(std::move(cs));
  }

  if (const util::JsonValue* diff = doc.find("diff")) {
    PlanDiff d;
    d.baseline = diff->at("baseline").as_string();
    d.mesh_ours = diff->at("mesh_ours").as_string();
    d.mesh_theirs = diff->at("mesh_theirs").as_string();
    d.total_ours_s = diff->at("total_ours_s").as_number();
    d.total_theirs_s = diff->at("total_theirs_s").as_number();
    for (const util::JsonValue& e : diff->at("entries").items()) {
      PlanDiffEntry de;
      de.scope = e.at("scope").as_string();
      de.multiplicity = static_cast<int>(e.at("multiplicity").as_int());
      de.pattern_ours = e.at("pattern_ours").as_string();
      de.pattern_theirs = e.at("pattern_theirs").as_string();
      de.bytes_ours = e.at("bytes_ours").as_int();
      de.bytes_theirs = e.at("bytes_theirs").as_int();
      de.exposed_ours_s = e.at("exposed_ours_s").as_number();
      de.exposed_theirs_s = e.at("exposed_theirs_s").as_number();
      de.differs = e.at("differs").as_bool();
      d.entries.push_back(std::move(de));
    }
    r.diff = std::move(d);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------------

std::string to_text(const PlanReport& r) {
  std::ostringstream os;
  os << "== Plan report: " << r.model << " (mesh "
     << mesh_string(r.dp_replicas, r.num_shards) << ") ==\n";
  if (!r.provenance.complete()) {
    os << "provenance " << core::plan_source_name(r.provenance.source)
       << " (" << r.provenance.families_searched << "/"
       << r.provenance.families_total << " families, "
       << r.provenance.meshes_searched << "/" << r.provenance.meshes_total
       << " meshes";
    if (r.provenance.deadline_hit) os << ", deadline hit";
    if (!r.provenance.fallback_reason.empty())
      os << ", reason: " << r.provenance.fallback_reason;
    os << ")\n";
  }
  os << "comm cost " << ms(r.cost.total()) << " ms (forward "
     << ms(r.cost.forward_comm_s) << ", backward exposed "
     << ms(r.cost.backward_comm_s) << "; "
     << util::fmt("%.1f", r.exposed_fraction * 100.0)
     << "% of overlappable comm exposed), "
     << util::human_bytes(static_cast<double>(r.cost.comm_bytes))
     << " over the wire\n";
  os << "simulated step " << ms(r.step.iteration_s) << " ms (compute "
     << ms(r.step.compute_s()) << ", comm busy " << ms(r.step.comm_s)
     << ", exposed " << ms(r.step.exposed_comm_s) << ", "
     << r.step.comm_messages << " messages)\n";

  os << "\n-- Top communication contributors (" << r.contributor_scopes
     << " scopes) --\n";
  {
    util::Table t({"scope", "x", "events", "bytes", "busy ms", "exposed ms"});
    for (const CommContributor& c : r.contributors) {
      t.add_row({c.scope,
                 c.multiplicity > 0 ? std::to_string(c.multiplicity) : "-",
                 std::to_string(c.events),
                 util::human_bytes(static_cast<double>(c.bytes)),
                 ms(c.seconds), ms(c.exposed_seconds)});
    }
    t.print(os);
  }

  const CriticalPath& cp = r.critical_path;
  os << "\n-- Critical path (simulated) --\n";
  const double total = cp.makespan_s > 0.0 ? cp.makespan_s : 1.0;
  os << "makespan " << ms(cp.makespan_s) << " ms = compute "
     << ms(cp.compute_s) << " ("
     << util::fmt("%.1f", cp.compute_s / total * 100.0)
     << "%) + exposed comm " << ms(cp.exposed_comm_s) << " ("
     << util::fmt("%.1f", cp.exposed_comm_s / total * 100.0)
     << "%) + bubble " << ms(cp.bubble_s) << " ("
     << util::fmt("%.1f", cp.bubble_s / total * 100.0) << "%), "
     << cp.intervals.size() << " intervals\n";
  {
    constexpr std::size_t kMaxSteps = 24;
    util::Table t({"step", "phase", "lane", "start ms", "dur ms"});
    const std::size_t skip =
        cp.steps.size() > kMaxSteps ? cp.steps.size() - kMaxSteps : 0;
    for (std::size_t i = skip; i < cp.steps.size(); ++i) {
      const CriticalStep& s = cp.steps[i];
      t.add_row({s.name, s.category, s.lane == 0 ? "compute" : "comm",
                 ms(s.start_s), ms(s.duration_s)});
    }
    if (skip > 0)
      os << "(first " << skip << " of " << cp.steps.size()
         << " critical steps elided)\n";
    t.print(os);
  }

  os << "\n-- Pruning --\n";
  os << r.pruning.families << " families at fold depth "
     << r.pruning.fold_depth << "; " << r.pruning.folded_families
     << " folded, " << r.pruning.duplicate_instances
     << " duplicate instances skipped\n";
  os << "search space " << util::human_count(static_cast<double>(
                               r.pruning.plans_with_pruning))
     << " plans with pruning vs "
     << util::human_count(static_cast<double>(r.pruning.plans_without_pruning))
     << " without (" << util::fmt("%.2f", r.pruning.search_space_reduction)
     << "x reduction)\n";
  if (r.search_seconds > 0.0) {
    os << "search took " << util::fmt("%.3f", r.search_seconds)
       << " s; estimated "
       << util::fmt("%.3f", r.search_seconds *
                                (r.pruning.search_space_reduction - 1.0))
       << " s saved by folding\n";
  }

  if (r.diff.has_value()) {
    const PlanDiff& d = *r.diff;
    os << "\n-- Diff vs " << d.baseline << " (ours " << d.mesh_ours
       << " @ " << ms(d.total_ours_s) << " ms, theirs " << d.mesh_theirs
       << " @ " << ms(d.total_theirs_s) << " ms) --\n";
    util::Table t({"scope", "x", "ours", "theirs", "exposed ms (ours)",
                   "exposed ms (theirs)", "delta ms"});
    for (const PlanDiffEntry& e : d.entries) {
      t.add_row({(e.differs ? "* " : "  ") + e.scope,
                 std::to_string(e.multiplicity), e.pattern_ours,
                 e.pattern_theirs, ms(e.exposed_ours_s),
                 ms(e.exposed_theirs_s),
                 ms(e.exposed_ours_s - e.exposed_theirs_s)});
    }
    t.print(os);
    os << "(* = pattern differs)\n";
  }

  if (!r.latency.empty()) {
    os << "\n-- Planner latency (process-wide, wall clock) --\n";
    util::Table t({"metric", "count", "p50 ms", "p95 ms", "p99 ms"});
    for (const LatencySummary& s : r.latency) {
      t.add_row({s.metric, std::to_string(s.count), util::fmt("%.3f", s.p50),
                 util::fmt("%.3f", s.p95), util::fmt("%.3f", s.p99)});
    }
    t.print(os);
  }
  return os.str();
}

}  // namespace tap::report
