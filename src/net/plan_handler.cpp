#include "net/plan_handler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/plan_context.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "report/report.h"
#include "util/check.h"
#include "util/json.h"

namespace tap::net {

namespace {

struct HandlerMetrics {
  obs::Counter* plan_requests;
  obs::Counter* explain_requests;
  obs::Counter* bad_requests;
  obs::Counter* misrouted;
  obs::Counter* overloaded;
  obs::Counter* failover_served;
};

HandlerMetrics& metrics() {
  static HandlerMetrics m{
      obs::registry().counter("net.plan.requests"),
      obs::registry().counter("net.plan.explain_requests"),
      obs::registry().counter("net.plan.bad_requests"),
      obs::registry().counter("net.plan.misrouted"),
      obs::registry().counter("net.plan.overloaded"),
      obs::registry().counter("net.plan.failover_served"),
  };
  return m;
}

/// Degraded-path marker (ISSUE 10): a client that exhausted every replica
/// of the owning shard re-sends with this header, asking any live shard
/// to relax the 421 misroute guard and serve a cold search. Safe because
/// plan bytes are a pure function of the PlanKey.
bool is_failover_request(const HttpMessage& req) {
  const std::string* h = req.find_header("x-tap-failover");
  return h != nullptr && *h == "1";
}

/// Retry-After is whole seconds (RFC 9110), rounded up so the hint never
/// undershoots the service's own suggestion.
std::string retry_after_seconds(double ms) {
  const double s = std::ceil(ms / 1000.0);
  return std::to_string(static_cast<long long>(s < 1.0 ? 1.0 : s));
}

/// Per-deadline-class latency of POST /plan, labeled so the Prometheus
/// dump separates "tight deadline, degraded fast" from "no deadline,
/// searched long" instead of averaging them into one meaningless curve.
obs::Histogram* plan_latency_hist(const char* deadline_class) {
  struct Hists {
    obs::Histogram* none =
        obs::registry().histogram("net.plan.request_ms|deadline=none");
    obs::Histogram* tight =
        obs::registry().histogram("net.plan.request_ms|deadline=tight");
    obs::Histogram* standard =
        obs::registry().histogram("net.plan.request_ms|deadline=standard");
    obs::Histogram* relaxed =
        obs::registry().histogram("net.plan.request_ms|deadline=relaxed");
  };
  static Hists h;
  if (std::strcmp(deadline_class, "tight") == 0) return h.tight;
  if (std::strcmp(deadline_class, "standard") == 0) return h.standard;
  if (std::strcmp(deadline_class, "relaxed") == 0) return h.relaxed;
  return h.none;
}

HttpMessage error_response(int status, const std::string& message) {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("error", util::JsonValue::string(message));
  return make_response(status, "application/json", doc.dump());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

PlanHandler::PlanHandler(service::PlannerService* svc,
                         PlanHandlerOptions opts)
    : svc_(svc),
      opts_(opts),
      scheme_(opts.num_shards, opts.scheme),
      recorder_(opts.flight_capacity, opts.slow_request_ms) {
  TAP_CHECK(svc_ != nullptr) << "PlanHandler needs a PlannerService";
  TAP_CHECK(opts_.shard_id >= 0 && opts_.shard_id < opts_.num_shards)
      << "shard id " << opts_.shard_id << " out of range for "
      << opts_.num_shards << " shards";
}

HttpMessage PlanHandler::handle(const HttpMessage& req) {
  const auto t_start = std::chrono::steady_clock::now();

  // Request identity: join the caller's trace when it sent a well-formed
  // traceparent, otherwise start a fresh root trace. Either way this hop
  // gets its own span id, and the context is installed thread-locally so
  // the service and pipeline layers below can tag their spans without
  // any API threading.
  obs::RequestContext ctx;
  const std::string* header = req.find_header("traceparent");
  if (header == nullptr || !obs::parse_traceparent(*header, &ctx))
    ctx = obs::generate_request_context();
  ctx.span_id = obs::next_span_id();
  obs::ScopedRequestContext scope(ctx);

  obs::FlightRecord rec;
  rec.trace_hi = ctx.trace_hi;
  rec.trace_lo = ctx.trace_lo;
  rec.sampled = ctx.sampled;
  obs::set_record_field(rec.deadline_class, sizeof rec.deadline_class,
                        "none");

  const std::string_view path = target_path(req.target);
  const char* route = "other";
  HttpMessage resp;
  if (path == "/plan") {
    route = "plan";
    resp = req.method != "POST" ? error_response(405, "POST /plan")
                                : handle_plan(req, rec);
  } else if (path == "/explain") {
    route = "explain";
    resp = req.method != "GET" ? error_response(405, "GET /explain")
                               : handle_explain(req, rec);
  } else if (path == "/metrics") {
    route = "metrics";
    resp = req.method != "GET"
               ? error_response(405, "GET /metrics")
               : make_response(200, "text/plain; version=0.0.4",
                               obs::dump_prometheus());
  } else if (path == "/healthz") {
    route = "healthz";
    resp = req.method != "GET" ? error_response(405, "GET /healthz")
                               : handle_healthz();
  } else if (path == "/debug/requests") {
    route = "debug_requests";
    resp = req.method != "GET" ? error_response(405, "GET /debug/requests")
                               : handle_debug_requests(req);
  } else {
    resp = error_response(404, "no such endpoint");
  }
  served_.fetch_add(1, std::memory_order_relaxed);

  // Echo the context on EVERY response (including errors): the client
  // learns the trace id the shard actually used, which is how a fresh
  // locally generated id still ends up correlatable.
  resp.set_header("traceparent", obs::format_traceparent(ctx));

  const double handle_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t_start)
                               .count();
  rec.handle_ms = static_cast<float>(handle_ms);
  rec.status = static_cast<std::uint16_t>(resp.status);
  obs::set_record_field(rec.route, sizeof rec.route, route);
  // Slow-request capture: only requests over the threshold keep their
  // span list; the fast majority stores summary fields only.
  if (handle_ms < recorder_.slow_ms()) rec.span_count = 0;
  if (path != "/debug/requests") {
    recorder_.record(rec);
    if (opts_.access_log != nullptr) opts_.access_log->log(rec);
  }
  if (path == "/plan")
    plan_latency_hist(rec.deadline_class)->observe(handle_ms);
  return resp;
}

HttpMessage PlanHandler::handle_healthz() const {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  util::JsonValue doc = util::JsonValue::object();
  doc.set("status", util::JsonValue::string("ok"));
  doc.set("shard", util::JsonValue::number(opts_.shard_id));
  doc.set("shards", util::JsonValue::number(opts_.num_shards));
  // Routers and shards that agree on placement agree on this digest; a
  // mismatch here explains a storm of 421s in one curl.
  doc.set("scheme", util::JsonValue::string(hex64(scheme_.fingerprint())));
  doc.set("uptime_s", util::JsonValue::number(uptime_s));
  doc.set("requests", util::JsonValue::number(static_cast<double>(
                          served_.load(std::memory_order_relaxed))));
  doc.set("version", util::JsonValue::string(kServeVersion));
  doc.set("plan_response_version",
          util::JsonValue::number(service::kPlanResponseVersion));
  return make_response(200, "application/json", doc.dump());
}

HttpMessage PlanHandler::handle_debug_requests(const HttpMessage& req) const {
  std::size_t n = 32;
  const std::string param = query_param(req.target, "n");
  if (!param.empty()) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(param.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && end != param.c_str())
      n = static_cast<std::size_t>(v);
  }
  n = std::min(std::max<std::size_t>(n, 1), recorder_.capacity());
  return make_response(200, "application/json", recorder_.to_json(n));
}

const PlanHandler::CachedModel* PlanHandler::model_for(
    const service::ModelSpec& spec) {
  // Only the architecture fields shape the graph; mesh/cluster/deadline
  // variants of the same model share one build.
  const std::string key = spec.model + "/" + std::to_string(spec.layers) +
                          "/" + std::to_string(spec.classes) + "/" +
                          std::to_string(spec.batch);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = models_.find(key);
  if (it == models_.end()) {
    TAP_SPAN("net.build_model", "net");
    it = models_.emplace(key,
                         std::make_unique<CachedModel>(
                             service::build_spec_model(spec)))
             .first;
  }
  return it->second.get();
}

HttpMessage PlanHandler::handle_plan(const HttpMessage& req,
                                     obs::FlightRecord& rec) {
  TAP_SPAN("net.plan", "net");
  metrics().plan_requests->add();
  service::ModelSpec spec;
  try {
    spec = service::model_spec_from_json(req.body);
  } catch (const std::exception& e) {
    metrics().bad_requests->add();
    obs::set_record_field(rec.reason, sizeof rec.reason, "bad_spec");
    return error_response(400, e.what());
  }
  const CachedModel* model = model_for(spec);
  service::PlanRequest plan_req{
      &model->tg, service::options_for_spec(spec, opts_.search_threads),
      spec.sweep()};
  const service::PlanKey key = svc_->key_for(plan_req);
  rec.key_digest = key.digest();
  const char* deadline_class =
      core::deadline_class_name(plan_req.opts.deadline_ms);
  obs::set_record_field(rec.deadline_class, sizeof rec.deadline_class,
                        deadline_class);
  const int owner = scheme_.shard_for(key);
  const bool failover = owner != opts_.shard_id && is_failover_request(req);
  if (owner != opts_.shard_id && !failover) {
    metrics().misrouted->add();
    obs::set_record_field(rec.reason, sizeof rec.reason, "misrouted");
    util::JsonValue doc = util::JsonValue::object();
    doc.set("error", util::JsonValue::string("misrouted"));
    doc.set("shard", util::JsonValue::number(owner));
    return make_response(421, "application/json", doc.dump());
  }
  if (failover) {
    // This shard is standing in for a dead owner: serve the (cold) search
    // and mark the provenance. Determinism keeps the bytes identical to
    // what the owner would have answered; "failover" stays serving
    // metadata (header + flight record), never plan bytes.
    metrics().failover_served->add();
    obs::set_record_field(rec.reason, sizeof rec.reason, "failover");
  }
  // Re-install the context with the request's deadline class filled in,
  // so the copy the PlannerService captures into its worker carries it.
  obs::RequestContext ctx = *obs::current_request_context();
  ctx.deadline_class = deadline_class;
  obs::ScopedRequestContext nested(ctx);
  try {
    // plan() owns degradation: a tripped deadline degrades to
    // anytime/fallback instead of throwing. Only load shedding escapes.
    service::PlanTelemetry telem;
    const core::TapResult result = svc_->plan(plan_req, &telem);
    rec.queue_ms = static_cast<float>(telem.queue_ms);
    rec.search_ms = static_cast<float>(telem.search_ms);
    obs::set_record_field(rec.served, sizeof rec.served,
                          service::served_name(telem.served));
    obs::set_record_field(rec.provenance, sizeof rec.provenance,
                          core::plan_source_name(result.provenance.source));
    const std::string& reason = !telem.reason.empty()
                                    ? telem.reason
                                    : result.provenance.fallback_reason;
    obs::set_record_field(rec.reason, sizeof rec.reason, reason);
    // Candidate spans for slow-request capture; handle() drops them again
    // for requests under the threshold.
    for (const core::PassTiming& t : result.pass_timings) {
      if (rec.span_count >= obs::FlightRecord::kMaxSpans) break;
      obs::FlightRecord::Span& s = rec.spans[rec.span_count++];
      obs::set_record_field(s.name, sizeof s.name, t.pass);
      s.ms = static_cast<float>(t.seconds * 1e3);
    }
    HttpMessage ok = make_response(
        200, "application/json",
        service::plan_response_json(model->tg, key, result));
    if (failover) ok.set_header("x-tap-served", "failover");
    return ok;
  } catch (const service::OverloadedError& e) {
    metrics().overloaded->add();
    obs::set_record_field(rec.served, sizeof rec.served, "shed");
    obs::set_record_field(rec.reason, sizeof rec.reason, "overloaded");
    HttpMessage shed = error_response(503, e.what());
    shed.set_header("retry-after", retry_after_seconds(e.retry_after_ms()));
    return shed;
  }
}

HttpMessage PlanHandler::handle_explain(const HttpMessage& req,
                                        obs::FlightRecord& rec) {
  metrics().explain_requests->add();
  service::ModelSpec spec;
  try {
    spec = service::model_spec_from_query(req.target);
  } catch (const std::exception& e) {
    metrics().bad_requests->add();
    obs::set_record_field(rec.reason, sizeof rec.reason, "bad_spec");
    return error_response(400, e.what());
  }
  const CachedModel* model = model_for(spec);
  service::PlanRequest plan_req{
      &model->tg, service::options_for_spec(spec, opts_.search_threads),
      spec.sweep()};
  const service::PlanKey key = svc_->key_for(plan_req);
  rec.key_digest = key.digest();
  obs::set_record_field(
      rec.deadline_class, sizeof rec.deadline_class,
      core::deadline_class_name(plan_req.opts.deadline_ms));
  const int owner = scheme_.shard_for(key);
  if (owner != opts_.shard_id) {
    metrics().misrouted->add();
    obs::set_record_field(rec.reason, sizeof rec.reason, "misrouted");
    util::JsonValue doc = util::JsonValue::object();
    doc.set("error", util::JsonValue::string("misrouted"));
    doc.set("shard", util::JsonValue::number(owner));
    return make_response(421, "application/json", doc.dump());
  }
  try {
    std::shared_ptr<const report::PlanReport> rep = svc_->explain(plan_req);
    return make_response(200, "application/json", report::to_json(*rep));
  } catch (const service::OverloadedError& e) {
    metrics().overloaded->add();
    obs::set_record_field(rec.served, sizeof rec.served, "shed");
    obs::set_record_field(rec.reason, sizeof rec.reason, "overloaded");
    HttpMessage shed = error_response(503, e.what());
    shed.set_header("retry-after", retry_after_seconds(e.retry_after_ms()));
    return shed;
  }
}

}  // namespace tap::net
