// Embedded HTTP/1.1 server fronting the PlannerService (ISSUE 7).
//
// One accept thread hands connections to a fixed pool of connection
// workers; each worker runs the keep-alive read loop over an incremental
// HttpParser (net/http.h), so pipelined requests in one read are served
// in order and malformed input gets its deterministic 400/413 before the
// connection closes. The handler is a plain function of the request —
// everything socket-shaped stays in here.
//
// Binding: port 0 requests an ephemeral port from the kernel and
// bound_port() reports the real one, so tests and CI never race on a
// fixed port.
//
// Graceful drain — stop() (idempotent, also run by the destructor):
//   1. stop accepting: the listen socket closes, queued-but-unserved
//      connections are dropped;
//   2. finish in-flight: workers complete the request they are parsing or
//      handling, answer it with "Connection: close", and idle keep-alive
//      connections close at their next poll tick;
//   3. deadline: connections still open after drain_deadline_ms are
//      forcibly shut down, so stop() always returns.
// The PlannerService's own load-shedding/deadline machinery keeps doing
// its job during the drain; the disk cache needs no flush (inserts are
// atomic write+rename at insert time).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"

namespace tap::net {

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port (see bound_port()).
  int port = 0;
  /// Concurrent connections served; accepted connections beyond this wait
  /// in a bounded queue of 128, and accept() closes any beyond that
  /// (connection-level load shedding).
  int connection_threads = 8;
  HttpLimits limits;
  /// stop(): wall budget for in-flight requests before force-close.
  double drain_deadline_ms = 5000.0;
};

class HttpServer {
 public:
  /// Maps one request to one response. Runs on a connection worker;
  /// must be thread-safe across connections. A thrown exception becomes
  /// a 500 response (never a crash or a wedged connection).
  using Handler = std::function<HttpMessage(const HttpMessage&)>;

  explicit HttpServer(Handler handler, HttpServerOptions opts = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the accept/worker threads. Throws
  /// util::CheckError on bind/listen failure.
  void start();

  /// The actually-bound TCP port (== options().port unless that was 0).
  int bound_port() const { return bound_port_; }

  /// Graceful drain as documented above. Idempotent; safe to call
  /// concurrently with in-flight requests.
  void stop();

  const HttpServerOptions& options() const { return opts_; }

  /// Requests answered since start() (all statuses).
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  bool send_all(int fd, const std::string& bytes);

  Handler handler_;
  HttpServerOptions opts_;
  int listen_fd_ = -1;
  int bound_port_ = 0;
  bool started_ = false;

  std::mutex mu_;  ///< guards pending_, active_, and stop transitions
  std::condition_variable cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a worker
  std::set<int> active_;     ///< fds currently owned by a worker
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> requests_served_{0};
};

}  // namespace tap::net
