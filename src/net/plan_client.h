// net::PlanClient — the fault-tolerant client/router in front of a fleet
// of tap_serve shards (ISSUE 7, fleet fault tolerance in ISSUE 10).
//
// The router holds a REPLICA SET per shard slot ("url|url|..." per slot)
// and the same ShardScheme the shards run, so it computes the owning
// shard of a PlanKey locally and sends the request straight there — no
// proxy hop, no coordination. Each replica endpoint gets one persistent
// keep-alive connection (HttpConnection) and one three-state
// CircuitBreaker tracking its health.
//
// A request spends its retry budget (ClientOptions::retries attempts)
// walking the owner slot's replicas in order, skipping endpoints whose
// breaker is open; a transport failure trips the breaker forward, a
// parsed response (any status) resets it. When every replica of the
// owner is down or breaker-open, the last-resort degraded path re-sends
// to the next shard slots with an `X-Tap-Failover: 1` header, which asks
// a non-owner to relax its 421 misroute guard and serve a cold search.
// That is safe by the serving tier's core contract: plan bytes are a
// pure function of the PlanKey, so any shard's answer is byte-identical
// to the owner's — only `served: failover` provenance metadata differs.
// Because plans are deterministic, a retry (even one that lands after a
// shard restart) can never observe a different answer — at-least-once
// delivery is safe by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/circuit_breaker.h"
#include "net/http.h"
#include "net/shard_scheme.h"

namespace tap::net {

/// Connection/request failure after all retry attempts (and, for plan
/// requests, after shard failover was exhausted too).
class HttpClientError : public std::runtime_error {
 public:
  explicit HttpClientError(const std::string& what)
      : std::runtime_error(what) {}
};

struct ClientOptions {
  /// Total attempts per request (connect + send + receive), spread across
  /// the slot's replicas in order.
  int retries = 3;
  /// Sleep after the k-th failed attempt (1-based) is k * backoff_ms.
  double backoff_ms = 50.0;
  /// Socket send/receive timeout per attempt.
  double timeout_ms = 30000.0;
  HttpLimits limits;
  ShardSchemeOptions scheme;
  /// Per-replica circuit breaker thresholds.
  BreakerOptions breaker;
  /// Test hook: monotonic now() in milliseconds for breaker cooldowns.
  /// Unset uses std::chrono::steady_clock.
  std::function<double()> clock;
};

struct Endpoint {
  std::string host;
  int port = 80;
};

/// Parses "http://host:port[/...]"; throws HttpClientError on anything
/// else (the serving tier is plain HTTP).
Endpoint parse_url(const std::string& url);

/// One persistent keep-alive connection to an endpoint. request() and
/// request_once() are thread-safe (serialized per connection), lazily
/// connect, and on any I/O failure close the socket so the next attempt
/// reconnects.
class HttpConnection {
 public:
  HttpConnection(Endpoint ep, ClientOptions opts);
  ~HttpConnection();

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends `req` and returns the parsed response, retrying with linear
  /// backoff. Throws HttpClientError after `retries` failed attempts.
  /// The per-connection mutex is held only while an attempt is on the
  /// wire — never across a backoff sleep — so concurrent callers are not
  /// serialized behind a dying endpoint's backoff.
  HttpMessage request(const HttpMessage& req);

  /// One attempt, no retry loop and no sleep: connect if needed, send,
  /// parse. Returns false on any I/O failure (the socket is closed so the
  /// next call reconnects). The PlanClient's failover loop is built on
  /// this so it can spend its budget across replicas instead of burning
  /// it on one dead endpoint.
  bool request_once(const HttpMessage& req, HttpMessage* out);

  const Endpoint& endpoint() const { return ep_; }

 private:
  bool ensure_connected();
  void close_fd();
  bool try_request(const HttpMessage& req, HttpMessage* out);

  Endpoint ep_;
  ClientOptions opts_;
  std::mutex mu_;
  int fd_ = -1;
};

/// Snapshot of the client's fault-tolerance machinery, also exported as
/// `net.client.*` metrics. `failovers` counts requests answered by
/// anything other than the owning slot's primary replica; a subset of
/// those, `nonowner_sends`, used the degraded X-Tap-Failover path.
struct ClientStats {
  std::uint64_t requests = 0;
  std::uint64_t failovers = 0;
  std::uint64_t nonowner_sends = 0;
  std::uint64_t breaker_skips = 0;  ///< attempts skipped: breaker open
};

class PlanClient {
 public:
  /// `shard_urls[i]` lists the replica base URLs of shard slot i,
  /// separated by '|' (e.g. "http://a:7001|http://b:7001"); replica 0 is
  /// the primary. The scheme is built over shard_urls.size() slots and
  /// must match the servers'.
  explicit PlanClient(std::vector<std::string> shard_urls,
                      ClientOptions opts = {});

  int num_shards() const { return scheme_.num_shards(); }
  int num_replicas(int shard) const {
    return static_cast<int>(shards_.at(static_cast<std::size_t>(shard))
                                .size());
  }
  int shard_for(const service::PlanKey& key) const {
    return scheme_.shard_for(key);
  }
  const std::string& url_of(int shard, int replica = 0) const {
    return shards_.at(static_cast<std::size_t>(shard))
        .at(static_cast<std::size_t>(replica))
        .url;
  }

  /// POST /plan routed to the shard owning `key` (replica failover, then
  /// the degraded non-owner path); `body` is the canonical ModelSpec JSON
  /// (service/wire.h).
  HttpMessage post_plan(const service::PlanKey& key, const std::string& body);

  /// GET `target` from a specific shard (metrics, healthz, explain) with
  /// replica failover; shard-local targets never fail over to non-owners.
  HttpMessage get(int shard, const std::string& target);

  /// The breaker guarding one replica endpoint (tests and probes).
  BreakerState breaker_state(int shard, int replica) const {
    return shards_.at(static_cast<std::size_t>(shard))
        .at(static_cast<std::size_t>(replica))
        .breaker->state();
  }

  ClientStats stats() const;

 private:
  struct Replica {
    std::string url;
    std::unique_ptr<HttpConnection> conn;
    std::unique_ptr<CircuitBreaker> breaker;
  };

  double now_ms() const;
  HttpMessage send(int shard, const HttpMessage& req, bool allow_failover);
  /// Walks `shard`'s replicas spending the retry budget; true once any
  /// replica answers. `*used_backup` reports a non-primary answered.
  bool try_shard(std::size_t shard, const HttpMessage& req, HttpMessage* out,
                 bool* used_backup);

  ShardScheme scheme_;
  ClientOptions opts_;
  std::vector<std::vector<Replica>> shards_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> nonowner_sends_{0};
  std::atomic<std::uint64_t> breaker_skips_{0};
};

}  // namespace tap::net
