// tap_serve — one shard of the networked plan-serving tier.
// `tap_serve --help` (or -h) prints the flags: see kUsage below.
//
// Endpoints: POST /plan, GET /explain, GET /metrics, GET /healthz,
// GET /debug/requests?n=K
// (net/plan_handler.h). On SIGTERM/SIGINT the server drains gracefully —
// stops accepting, finishes in-flight requests within the drain budget,
// answers them with Connection: close — then exits 0. A second signal is
// ignored (the drain is already underway).
//
// Startup prints exactly one line CI and scripts can parse:
//   tap_serve: listening on 127.0.0.1:PORT (shard K/N)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <memory>

#include "net/http_server.h"
#include "net/plan_handler.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "service/planner_service.h"

namespace {

constexpr const char kUsage[] = R"usage(usage:
  tap_serve [--host H] [--port P]            default 127.0.0.1:0
                                             (port 0 = ephemeral; the
                                             bound port is printed)
            [--shards N] [--shard-id K]      consistent-hash layout;
                                             this process answers only
                                             the PlanKeys it owns and
                                             421s the rest
            [--cache-dir DIR]                plan-cache disk tier: one
                                             append-only log,
                                             DIR/plans.log, written by
                                             one process at a time
            [--threads N]                    planner search threads
            [--request-threads N]            PlannerService workers
            [--conn-threads N]               HTTP connection workers
            [--max-pending N]                load-shed bound (0 = off)
            [--batch-admission F]            deadline-class admission:
                                             batch traffic (no/relaxed
                                             deadline) admitted up to
                                             F * max-pending in-flight
                                             searches (default 1.0 =
                                             classless shedding)
            [--drain-ms MS]                  SIGTERM drain budget
            [--access-log FILE]              structured JSON access log,
                                             one line per sampled
                                             request ("-" = stdout)
            [--log-sample N]                 log every N-th sampled
                                             request (default 1 = all)
            [--slow-ms MS]                   flight-recorder slow-request
                                             span-capture threshold
                                             (default 250)
            [--flight-capacity N]            flight-recorder ring slots
                                             (default 512)
            [--help | -h]                    print this text and exit 0
)usage";

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Args {
  bool help = false;
  std::string host = "127.0.0.1";
  int port = 0;
  int shards = 1;
  int shard_id = 0;
  std::string cache_dir;
  int threads = 1;
  int request_threads = 0;
  int conn_threads = 8;
  std::int64_t max_pending = 0;
  double batch_admission = 1.0;
  std::int64_t drain_ms = 5000;
  std::string access_log;
  std::int64_t log_sample = 1;
  std::int64_t slow_ms = 250;
  std::int64_t flight_capacity = 512;
};

bool parse_int(const char* s, std::int64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const char* f = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto as_int = [&](std::int64_t* out) {
      const char* v = value();
      if (v == nullptr || !parse_int(v, out)) {
        std::cerr << "bad or missing value for " << f << "\n";
        return false;
      }
      return true;
    };
    auto as_i32 = [&](int* out) {
      std::int64_t wide = *out;
      if (!as_int(&wide)) return false;
      *out = static_cast<int>(wide);
      return true;
    };
    if (!std::strcmp(f, "--help") || !std::strcmp(f, "-h")) {
      a->help = true;
      return true;
    } else if (!std::strcmp(f, "--host")) {
      const char* v = value();
      if (v == nullptr) return false;
      a->host = v;
    } else if (!std::strcmp(f, "--port")) {
      if (!as_i32(&a->port)) return false;
    } else if (!std::strcmp(f, "--shards")) {
      if (!as_i32(&a->shards)) return false;
    } else if (!std::strcmp(f, "--shard-id")) {
      if (!as_i32(&a->shard_id)) return false;
    } else if (!std::strcmp(f, "--cache-dir")) {
      const char* v = value();
      if (v == nullptr) return false;
      a->cache_dir = v;
    } else if (!std::strcmp(f, "--threads")) {
      if (!as_i32(&a->threads)) return false;
    } else if (!std::strcmp(f, "--request-threads")) {
      if (!as_i32(&a->request_threads)) return false;
    } else if (!std::strcmp(f, "--conn-threads")) {
      if (!as_i32(&a->conn_threads)) return false;
    } else if (!std::strcmp(f, "--max-pending")) {
      if (!as_int(&a->max_pending)) return false;
    } else if (!std::strcmp(f, "--batch-admission")) {
      const char* v = value();
      char* end = nullptr;
      const double frac = v != nullptr ? std::strtod(v, &end) : 0.0;
      if (v == nullptr || end == v || *end != '\0' || frac <= 0.0 ||
          frac > 1.0) {
        std::cerr << "bad or missing value for --batch-admission "
                     "(want 0 < F <= 1)\n";
        return false;
      }
      a->batch_admission = frac;
    } else if (!std::strcmp(f, "--drain-ms")) {
      if (!as_int(&a->drain_ms)) return false;
    } else if (!std::strcmp(f, "--access-log")) {
      const char* v = value();
      if (v == nullptr) return false;
      a->access_log = v;
    } else if (!std::strcmp(f, "--log-sample")) {
      if (!as_int(&a->log_sample)) return false;
    } else if (!std::strcmp(f, "--slow-ms")) {
      if (!as_int(&a->slow_ms)) return false;
    } else if (!std::strcmp(f, "--flight-capacity")) {
      if (!as_int(&a->flight_capacity)) return false;
    } else {
      std::cerr << "unknown flag: " << f << "\n";
      return false;
    }
  }
  if (a->shards < 1 || a->shard_id < 0 || a->shard_id >= a->shards) {
    std::cerr << "need 0 <= --shard-id < --shards\n";
    return false;
  }
  if (a->port < 0 || a->port > 65535) {
    std::cerr << "bad --port\n";
    return false;
  }
  if (a->log_sample < 1 || a->slow_ms < 0 || a->flight_capacity < 2) {
    std::cerr << "need --log-sample >= 1, --slow-ms >= 0, "
                 "--flight-capacity >= 2\n";
    return false;
  }
  return true;
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

  service::ServiceOptions sopts;
  sopts.cache.disk_dir = args.cache_dir;
  sopts.request_threads = args.request_threads;
  sopts.max_pending = static_cast<std::size_t>(args.max_pending);
  sopts.batch_admission = args.batch_admission;
  service::PlannerService svc(sopts);

  std::unique_ptr<obs::AccessLogger> access_log;
  if (!args.access_log.empty()) {
    access_log = std::make_unique<obs::AccessLogger>(
        args.access_log, static_cast<std::uint64_t>(args.log_sample));
    if (!access_log->ok()) {
      std::cerr << "tap_serve: cannot open access log " << args.access_log
                << "\n";
      return 1;
    }
  }

  net::PlanHandlerOptions hopts;
  hopts.num_shards = args.shards;
  hopts.shard_id = args.shard_id;
  hopts.search_threads = args.threads;
  hopts.flight_capacity = static_cast<std::size_t>(args.flight_capacity);
  hopts.slow_request_ms = static_cast<double>(args.slow_ms);
  hopts.access_log = access_log.get();
  net::PlanHandler handler(&svc, hopts);

  net::HttpServerOptions nopts;
  nopts.host = args.host;
  nopts.port = args.port;
  nopts.connection_threads = args.conn_threads;
  nopts.drain_deadline_ms = static_cast<double>(args.drain_ms);
  net::HttpServer server(
      [&handler](const net::HttpMessage& req) { return handler.handle(req); },
      nopts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "tap_serve: " << e.what() << "\n";
    return 1;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::printf("tap_serve: listening on %s:%d (shard %d/%d)\n",
              args.host.c_str(), server.bound_port(), args.shard_id,
              args.shards);
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("tap_serve: draining (budget %lld ms)\n",
              static_cast<long long>(args.drain_ms));
  std::fflush(stdout);
  server.stop();

  const auto ss = svc.stats();
  const obs::Histogram& lat =
      *obs::registry().histogram("net.http.request_ms");
  std::printf("tap_serve: request latency p50 %.2f ms, p95 %.2f ms, "
              "p99 %.2f ms\n",
              obs::histogram_quantile(lat, 0.50),
              obs::histogram_quantile(lat, 0.95),
              obs::histogram_quantile(lat, 0.99));
  if (access_log != nullptr) {
    std::printf("tap_serve: access log: %llu lines\n",
                static_cast<unsigned long long>(access_log->lines()));
  }
  std::printf("tap_serve: fault tolerance: %llu failover-served, "
              "%llu shed by class\n",
              static_cast<unsigned long long>(
                  obs::registry()
                      .counter("net.plan.failover_served")
                      ->value()),
              static_cast<unsigned long long>(ss.shed_by_class));
  std::printf("tap_serve: served %llu requests (%llu plans, %llu cache "
              "hits, %llu coalesced, %llu shed); "
              "exiting 0\n",
              static_cast<unsigned long long>(server.requests_served()),
              static_cast<unsigned long long>(ss.requests),
              static_cast<unsigned long long>(ss.cache_hits),
              static_cast<unsigned long long>(ss.coalesced),
              static_cast<unsigned long long>(ss.shed));
  return 0;
}
