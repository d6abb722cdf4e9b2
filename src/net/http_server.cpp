#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace tap::net {

namespace {

/// listen() backlog.
constexpr int kListenBacklog = 128;
/// Accepted-but-unserved connections held; beyond this, accept() closes
/// immediately (connection-level load shedding).
constexpr std::size_t kMaxPendingConnections = 128;
/// Idle-connection poll tick; bounds how fast drain/stop is noticed.
constexpr int kPollIntervalMs = 50;

struct ServerMetrics {
  obs::Counter* accepted;
  obs::Counter* shed;
  obs::Counter* requests;
  obs::Counter* parse_errors;
  obs::Counter* handler_errors;
  obs::Gauge* active;
  obs::Histogram* request_ms;
};

ServerMetrics& metrics() {
  static ServerMetrics m{
      obs::registry().counter("net.server.accepted"),
      obs::registry().counter("net.server.shed"),
      obs::registry().counter("net.http.requests"),
      obs::registry().counter("net.http.parse_errors"),
      obs::registry().counter("net.http.handler_errors"),
      obs::registry().gauge("net.server.active_connections"),
      obs::registry().histogram("net.http.request_ms"),
  };
  return m;
}

/// Per-route variant of net.http.request_ms (labeled; see obs/metrics.h).
/// Routes are a fixed enumeration so the label cardinality is bounded —
/// unknown paths all share "other".
obs::Histogram* route_request_ms(std::string_view path) {
  struct Hists {
    obs::Histogram* plan =
        obs::registry().histogram("net.http.request_ms|route=plan");
    obs::Histogram* explain =
        obs::registry().histogram("net.http.request_ms|route=explain");
    obs::Histogram* metrics =
        obs::registry().histogram("net.http.request_ms|route=metrics");
    obs::Histogram* healthz =
        obs::registry().histogram("net.http.request_ms|route=healthz");
    obs::Histogram* debug = obs::registry().histogram(
        "net.http.request_ms|route=debug_requests");
    obs::Histogram* other =
        obs::registry().histogram("net.http.request_ms|route=other");
  };
  static Hists h;
  if (path == "/plan") return h.plan;
  if (path == "/explain") return h.explain;
  if (path == "/metrics") return h.metrics;
  if (path == "/healthz") return h.healthz;
  if (path == "/debug/requests") return h.debug;
  return h.other;
}

}  // namespace

HttpServer::HttpServer(Handler handler, HttpServerOptions opts)
    : handler_(std::move(handler)), opts_(std::move(opts)) {
  TAP_CHECK(handler_ != nullptr) << "HttpServer needs a handler";
  TAP_CHECK(opts_.connection_threads >= 1);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  TAP_CHECK(!started_) << "HttpServer already started";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  TAP_CHECK(listen_fd_ >= 0) << "socket(): " << std::strerror(errno);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  const std::string& host =
      opts_.host == "localhost" ? std::string("127.0.0.1") : opts_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    TAP_CHECK(false) << "unresolvable host '" << opts_.host << "'";
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    TAP_CHECK(false) << "bind(" << opts_.host << ":" << opts_.port
                     << "): " << std::strerror(err);
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    TAP_CHECK(false) << "listen(): " << std::strerror(err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  TAP_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0)
      << "getsockname(): " << std::strerror(errno);
  bound_port_ = ntohs(bound.sin_port);

  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(static_cast<std::size_t>(opts_.connection_threads));
  for (int i = 0; i < opts_.connection_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void HttpServer::accept_loop() {
  for (;;) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, kPollIntervalMs);
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (TAP_FAULT_FAIL("net.accept")) {
      // Injected accept-time failure: the connection is dropped before a
      // byte is read, as if the listener reset it — the client's next
      // read on this connection fails and its retry path reconnects.
      ::close(fd);
      continue;
    }
    metrics().accepted->add();
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_.load(std::memory_order_relaxed) ||
        pending_.size() >= kMaxPendingConnections) {
      // Connection-level load shedding: never queue unboundedly.
      metrics().shed->add();
      ::close(fd);
      continue;
    }
    pending_.push_back(fd);
    cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] {
        return stopping_.load(std::memory_order_relaxed) ||
               !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping, nothing queued
      fd = pending_.front();
      pending_.pop_front();
      active_.insert(fd);
    }
    metrics().active->add(1.0);
    serve_connection(fd);
    metrics().active->add(-1.0);
    {
      // Erase BEFORE close: stop() force-shutdowns only fds still in
      // active_ under this mutex, so it can never touch a closed (and
      // possibly reused) descriptor.
      std::lock_guard<std::mutex> lk(mu_);
      active_.erase(fd);
    }
    ::close(fd);
  }
}

bool HttpServer::send_all(int fd, const std::string& bytes) {
  if (TAP_FAULT_FAIL("net.write.reset")) {
    // Injected mid-write reset: the caller treats it like a peer that
    // vanished — the connection closes without an answer and the client
    // must retry (safe: serving answers are pure functions of the key).
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void HttpServer::serve_connection(int fd) {
  HttpParser parser(HttpParser::Mode::kRequest, opts_.limits);
  std::vector<char> buf(16 * 1024);
  bool close_conn = false;
  while (!close_conn) {
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, kPollIntervalMs);
    if (r < 0) break;
    if (r == 0) {
      // Idle tick. During drain, idle keep-alive connections close here;
      // a connection mid-message keeps reading so the in-flight request
      // finishes (stop()'s deadline force-closes stragglers).
      if (stopping_.load(std::memory_order_relaxed) && !parser.in_progress())
        break;
      continue;
    }
    TAP_FAULT_POINT("net.read.stall");  // injected slow-read (delay action)
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) break;  // disconnect (possibly mid-body): drop, no answer
    std::size_t off = 0;
    while (off < static_cast<std::size_t>(n)) {
      off += parser.feed(buf.data() + off,
                         static_cast<std::size_t>(n) - off);
      if (parser.failed()) {
        // Malformed input answers deterministically (400/413), then the
        // connection closes: framing after a parse error is unknowable.
        metrics().parse_errors->add();
        HttpMessage err = make_response(
            parser.error_status(), "application/json",
            std::string("{\"error\":\"") +
                (parser.error_status() == 413 ? "payload too large"
                                              : "bad request") +
                "\"}");
        err.keep_alive = false;
        send_all(fd, serialize_response(err));
        close_conn = true;
        break;
      }
      if (!parser.done()) break;  // need more bytes
      HttpMessage req = std::move(parser.message());
      parser.reset();
      util::Stopwatch sw;
      HttpMessage resp;
      try {
        TAP_SPAN("net.request", "net");
        resp = handler_(req);
      } catch (const std::exception&) {
        metrics().handler_errors->add();
        resp = make_response(500, "application/json",
                             "{\"error\":\"internal\"}");
      }
      resp.keep_alive = resp.keep_alive && req.keep_alive &&
                        !stopping_.load(std::memory_order_relaxed);
      metrics().requests->add();
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      const double ms = sw.elapsed_millis();
      metrics().request_ms->observe(ms);
      route_request_ms(target_path(req.target))->observe(ms);
      TAP_FAULT_POINT("net.respond.delay");  // injected pre-response stall
      if (!send_all(fd, serialize_response(resp)) || !resp.keep_alive) {
        close_conn = true;
        break;
      }
      // Loop on: leftover bytes in buf are the next pipelined request.
    }
  }
}

void HttpServer::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    stopping_.store(true, std::memory_order_relaxed);
    // Stop accepting; drop queued-but-unserved connections.
    for (int fd : pending_) ::close(fd);
    pending_.clear();
    cv_.notify_all();
  }
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Finish in-flight within the drain deadline...
  const util::Deadline deadline =
      util::Deadline::after_ms(opts_.drain_deadline_ms);
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (active_.empty()) break;
    }
    if (deadline.expired()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    // ...then force-close stragglers so stop() always returns. Shutdown
    // (not close) keeps the fd valid for its owning worker.
    std::lock_guard<std::mutex> lk(mu_);
    for (int fd : active_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

}  // namespace tap::net
