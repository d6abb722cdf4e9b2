#include "net/plan_client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "util/check.h"

namespace tap::net {

namespace {

obs::Counter* retry_counter() {
  static obs::Counter* c = obs::registry().counter("net.client.retries");
  return c;
}

obs::Counter* failover_counter() {
  static obs::Counter* c = obs::registry().counter("net.client.failover");
  return c;
}

timeval timeval_of_ms(double ms) {
  if (ms <= 0) ms = 1.0;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  return tv;
}

void backoff_sleep(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Splits one shard slot entry on '|' into its replica URLs.
std::vector<std::string> split_replicas(const std::string& slot) {
  std::vector<std::string> urls;
  std::size_t start = 0;
  while (start <= slot.size()) {
    const std::size_t bar = slot.find('|', start);
    const std::size_t end = bar == std::string::npos ? slot.size() : bar;
    if (end > start) urls.push_back(slot.substr(start, end - start));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  return urls;
}

}  // namespace

Endpoint parse_url(const std::string& url) {
  const std::string scheme = "http://";
  if (url.rfind(scheme, 0) != 0) {
    throw HttpClientError("unsupported URL (want http://host:port): " + url);
  }
  std::string rest = url.substr(scheme.size());
  const std::size_t slash = rest.find('/');
  if (slash != std::string::npos) rest = rest.substr(0, slash);
  Endpoint ep;
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos) {
    ep.host = rest;
  } else {
    ep.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long p = std::strtol(port.c_str(), &end, 10);
    if (port.empty() || *end != '\0' || p < 1 || p > 65535) {
      throw HttpClientError("bad port in URL: " + url);
    }
    ep.port = static_cast<int>(p);
  }
  if (ep.host.empty()) throw HttpClientError("empty host in URL: " + url);
  return ep;
}

HttpConnection::HttpConnection(Endpoint ep, ClientOptions opts)
    : ep_(std::move(ep)), opts_(opts) {}

HttpConnection::~HttpConnection() { close_fd(); }

void HttpConnection::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool HttpConnection::ensure_connected() {
  if (fd_ >= 0) return true;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep_.port);
  if (::getaddrinfo(ep_.host.c_str(), port.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return false;
  }
  int fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                    res->ai_protocol);
  bool ok = fd >= 0;
  if (ok) {
    const timeval tv = timeval_of_ms(opts_.timeout_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    ok = ::connect(fd, res->ai_addr, res->ai_addrlen) == 0;
  }
  ::freeaddrinfo(res);
  if (!ok) {
    if (fd >= 0) ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool HttpConnection::try_request(const HttpMessage& req, HttpMessage* out) {
  if (!ensure_connected()) return false;
  const std::string host = ep_.host + ":" + std::to_string(ep_.port);
  const std::string bytes = serialize_request(req, host);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  HttpParser parser(HttpParser::Mode::kResponse, opts_.limits);
  char buf[16 * 1024];
  while (!parser.done()) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // timeout or reset
    }
    if (n == 0) {
      parser.finish_eof();
      break;
    }
    std::size_t used = 0;
    while (used < static_cast<std::size_t>(n) && !parser.done() &&
           !parser.failed()) {
      used += parser.feed(buf + used, static_cast<std::size_t>(n) - used);
    }
    if (parser.failed()) return false;
  }
  if (!parser.done()) return false;
  *out = std::move(parser.message());
  if (!out->keep_alive) close_fd();
  return true;
}

bool HttpConnection::request_once(const HttpMessage& req, HttpMessage* out) {
  std::lock_guard<std::mutex> lk(mu_);
  if (try_request(req, out)) return true;
  close_fd();
  return false;
}

HttpMessage HttpConnection::request(const HttpMessage& req) {
  const int attempts = opts_.retries < 1 ? 1 : opts_.retries;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    HttpMessage resp;
    if (request_once(req, &resp)) return resp;
    if (attempt == attempts) break;
    retry_counter()->add();
    backoff_sleep(attempt * opts_.backoff_ms);
  }
  throw HttpClientError("request to " + ep_.host + ":" +
                        std::to_string(ep_.port) + " failed after " +
                        std::to_string(attempts) + " attempts");
}

PlanClient::PlanClient(std::vector<std::string> shard_urls,
                       ClientOptions opts)
    : scheme_(static_cast<int>(shard_urls.size()), opts.scheme),
      opts_(std::move(opts)) {
  TAP_CHECK(!shard_urls.empty()) << "PlanClient needs at least one shard URL";
  shards_.reserve(shard_urls.size());
  for (const std::string& slot : shard_urls) {
    std::vector<Replica> replicas;
    for (const std::string& url : split_replicas(slot)) {
      Replica r;
      r.url = url;
      r.conn = std::make_unique<HttpConnection>(parse_url(url), opts_);
      r.breaker = std::make_unique<CircuitBreaker>(opts_.breaker);
      replicas.push_back(std::move(r));
    }
    TAP_CHECK(!replicas.empty())
        << "shard slot '" << slot << "' has no replica URLs";
    shards_.push_back(std::move(replicas));
  }
}

double PlanClient::now_ms() const {
  if (opts_.clock) return opts_.clock();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool PlanClient::try_shard(std::size_t shard, const HttpMessage& req,
                           HttpMessage* out, bool* used_backup) {
  std::vector<Replica>& replicas = shards_[shard];
  const int attempts = opts_.retries < 1 ? 1 : opts_.retries;
  int attempt = 0;
  int failures = 0;
  while (attempt < attempts) {
    bool any_io = false;
    for (std::size_t r = 0; r < replicas.size() && attempt < attempts; ++r) {
      Replica& rep = replicas[r];
      if (!rep.breaker->allow(now_ms())) {
        breaker_skips_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      ++attempt;
      any_io = true;
      if (rep.conn->request_once(req, out)) {
        rep.breaker->on_success();
        if (r != 0) *used_backup = true;
        return true;
      }
      rep.breaker->on_failure(now_ms());
      ++failures;
      if (attempt < attempts) {
        retry_counter()->add();
        backoff_sleep(failures * opts_.backoff_ms);
      }
    }
    // A full pass without a single admitted attempt means every replica's
    // breaker is open — give up immediately (failover decides what next)
    // instead of sleeping the budget away.
    if (!any_io) return false;
  }
  return false;
}

HttpMessage PlanClient::send(int shard, const HttpMessage& req,
                             bool allow_failover) {
  TAP_CHECK(shard >= 0 && shard < num_shards())
      << "shard " << shard << " out of range";
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Propagate the calling thread's request context (or start a fresh root
  // trace) as a W3C traceparent header, so the shard's flight recorder,
  // access log, and trace spans all correlate with this hop's span.
  const obs::RequestContext* current = obs::current_request_context();
  obs::RequestContext ctx =
      current != nullptr ? *current : obs::generate_request_context();
  if (ctx.span_id == 0) ctx.span_id = obs::next_span_id();
  HttpMessage traced = req;
  traced.set_header("traceparent", obs::format_traceparent(ctx));
  obs::ScopedSpan span("net.client.request", "net");
  if (ctx.sampled) span.arg("trace", ctx.trace_hex());

  HttpMessage resp;
  bool used_backup = false;
  if (try_shard(static_cast<std::size_t>(shard), traced, &resp,
                &used_backup)) {
    if (used_backup) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      failover_counter()->add();
    }
    return resp;
  }
  if (allow_failover && num_shards() > 1) {
    // Degraded path: every replica of the owner is down or breaker-open.
    // Any shard can serve the key — plan bytes are a pure function of the
    // PlanKey — so ask the next slots to relax their 421 misroute guard.
    HttpMessage degraded = traced;
    degraded.set_header("x-tap-failover", "1");
    for (int off = 1; off < num_shards(); ++off) {
      const std::size_t alt = static_cast<std::size_t>(
          (shard + off) % num_shards());
      bool ignored = false;
      if (try_shard(alt, degraded, &resp, &ignored)) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        nonowner_sends_.fetch_add(1, std::memory_order_relaxed);
        failover_counter()->add();
        return resp;
      }
    }
  }
  throw HttpClientError("shard " + std::to_string(shard) + " (" +
                        url_of(shard) + ") unreachable after " +
                        std::to_string(opts_.retries < 1 ? 1 : opts_.retries) +
                        " attempts" +
                        (allow_failover && num_shards() > 1
                             ? " and shard failover"
                             : ""));
}

HttpMessage PlanClient::post_plan(const service::PlanKey& key,
                                  const std::string& body) {
  HttpMessage req;
  req.method = "POST";
  req.target = "/plan";
  req.body = body;
  return send(scheme_.shard_for(key), req, /*allow_failover=*/true);
}

HttpMessage PlanClient::get(int shard, const std::string& target) {
  HttpMessage req;
  req.method = "GET";
  req.target = target;
  return send(shard, req, /*allow_failover=*/false);
}

ClientStats PlanClient::stats() const {
  ClientStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.nonowner_sends = nonowner_sends_.load(std::memory_order_relaxed);
  s.breaker_skips = breaker_skips_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tap::net
