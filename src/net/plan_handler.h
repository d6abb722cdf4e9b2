// net::PlanHandler — the HTTP face of one PlannerService shard (ISSUE 7).
//
// Routes:
//   POST /plan     ModelSpec JSON -> canonical plan-response JSON
//                  (service/wire.h). 400 on malformed/unknown specs,
//                  413 via the parser limits, 421 when the consistent-hash
//                  scheme says another shard owns the key (relaxed when
//                  the request carries `X-Tap-Failover: 1` — the client's
//                  degraded path after the owner's replicas died; the
//                  non-owner serves a cold search with byte-identical
//                  output and marks the response `X-Tap-Served: failover`),
//                  503 + Retry-After when the service sheds load.
//   GET /explain   ModelSpec as query params -> cached PlanReport JSON.
//   GET /metrics   Prometheus text (obs::dump_prometheus) — every
//                  request/latency/shed counter of the tier.
//   GET /healthz   Shard identity + liveness JSON: shard/shards, the
//                  ShardScheme fingerprint (a router whose fingerprint
//                  differs WILL misroute — visible here before the 421s),
//                  uptime, requests served, build version.
//   GET /debug/requests?n=K
//                  The flight recorder's last K request summaries
//                  (trace id, route, provenance, cache tier, timings;
//                  slow requests keep their pass spans) as JSON.
//
// Observability (ISSUE 9): every request is assigned a RequestContext —
// parsed from an incoming W3C `traceparent` header when one is present
// and well-formed, freshly generated otherwise — installed thread-locally
// for the duration of handling, and echoed back as a `traceparent`
// response header so clients can correlate. Every request (except
// /debug/requests itself, which would self-pollute the ring) leaves one
// FlightRecord in the per-shard recorder and, when configured, one
// sampled JSON access-log line. Trace ids never enter plan/report/wire
// JSON bytes — serving answers stay pure functions of the PlanKey.
//
// The handler owns a model cache: each distinct architecture is built and
// lowered once, and only its lowered TapGraph is kept for the process
// lifetime (PlanRequest borrows it; the framework Graph is freed as soon
// as ir::lower returns), so repeat requests pay only the PlannerService
// cache lookup. Placement is enforced on BOTH sides: the PlanClient
// routes to the owning shard, and the shard rejects misrouted keys with
// 421 naming the owner — a deterministic guard, not a redirect loop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "ir/lowering.h"
#include "net/http.h"
#include "net/shard_scheme.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "service/planner_service.h"
#include "service/wire.h"

namespace tap::net {

/// Build identity reported by /healthz (serving metadata only).
inline constexpr const char kServeVersion[] = "tap-serve/0.9";

struct PlanHandlerOptions {
  /// Shard layout this process serves; (1, 0) = unsharded.
  int num_shards = 1;
  int shard_id = 0;
  ShardSchemeOptions scheme;
  /// Planner search threads per request (bit-identity-neutral).
  int search_threads = 1;
  /// Flight-recorder ring slots (fixed memory: slots * ~330 B).
  std::size_t flight_capacity = 512;
  /// Requests slower than this retain their pipeline pass spans in the
  /// flight record (fast requests drop them — see obs/flight_recorder.h).
  double slow_request_ms = 250.0;
  /// Optional structured access log; borrowed, must outlive the handler.
  obs::AccessLogger* access_log = nullptr;
};

class PlanHandler {
 public:
  /// `svc` is borrowed and must outlive the handler.
  PlanHandler(service::PlannerService* svc, PlanHandlerOptions opts = {});

  /// The HttpServer::Handler entry point (thread-safe).
  HttpMessage handle(const HttpMessage& req);

  const ShardScheme& scheme() const { return scheme_; }
  /// The per-shard flight recorder (exposed for tests and the bench's
  /// recorder-overhead gate).
  obs::FlightRecorder& recorder() { return recorder_; }

 private:
  HttpMessage handle_plan(const HttpMessage& req, obs::FlightRecord& rec);
  HttpMessage handle_explain(const HttpMessage& req,
                             obs::FlightRecord& rec);
  HttpMessage handle_healthz() const;
  HttpMessage handle_debug_requests(const HttpMessage& req) const;
  /// Builds and lowers (once) and returns the model for `spec`; keyed by
  /// the architecture fields only (mesh/cluster do not change the graph).
  /// Sets the net.models.cached gauge to the number of models held.
  const ir::TapGraph* model_for(const service::ModelSpec& spec);

  service::PlannerService* svc_;
  PlanHandlerOptions opts_;
  ShardScheme scheme_;
  obs::FlightRecorder recorder_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> served_{0};
  std::mutex mu_;
  /// Lowered models by architecture; map nodes never move, so requests
  /// borrow them.
  std::map<std::string, const ir::TapGraph> models_;
};

}  // namespace tap::net
