// Networked plan-serving tier tests (ISSUE 7) — the acceptance criteria
// of src/net/: the parser never crashes and answers malformed input with
// a deterministic 400/413; consistent-hash placement is a pure function
// (every zoo PlanKey maps to exactly ONE shard, the same in every
// process); and POST /plan returns byte-identical JSON to the in-process
// PlannerService for the same key — the determinism contract of the tier.
#include "net/http.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <optional>

#include "ir/lowering.h"
#include "models/models.h"
#include "net/http_server.h"
#include "net/plan_client.h"
#include "net/plan_handler.h"
#include "net/shard_scheme.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "service/planner_service.h"
#include "service/wire.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/json.h"

namespace tap::net {
namespace {

// ---------------------------------------------------------------------------
// HttpParser: clean input
// ---------------------------------------------------------------------------

TEST(HttpParser, SimpleGet) {
  const std::string raw = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpParser p(HttpParser::Mode::kRequest);
  EXPECT_EQ(p.feed(raw.data(), raw.size()), raw.size());
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.message().method, "GET");
  EXPECT_EQ(p.message().target, "/healthz");
  EXPECT_EQ(p.message().version_minor, 1);
  EXPECT_TRUE(p.message().keep_alive);
  ASSERT_NE(p.message().find_header("host"), nullptr);
  EXPECT_EQ(*p.message().find_header("HOST"), "x");
}

TEST(HttpParser, PostWithBody) {
  const std::string raw =
      "POST /plan HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
  HttpParser p(HttpParser::Mode::kRequest);
  EXPECT_EQ(p.feed(raw.data(), raw.size()), raw.size());
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.message().method, "POST");
  EXPECT_EQ(p.message().body, "hello world");
}

TEST(HttpParser, ByteAtATimeFeedMatchesWholeBuffer) {
  const std::string raw =
      "POST /plan HTTP/1.1\r\nContent-Length: 4\r\nX-A: b\r\n\r\nabcd";
  HttpParser p(HttpParser::Mode::kRequest);
  for (char c : raw) {
    ASSERT_FALSE(p.failed());
    EXPECT_EQ(p.feed(&c, 1), 1u);
  }
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.message().body, "abcd");
  ASSERT_NE(p.message().find_header("x-a"), nullptr);
}

TEST(HttpParser, PipelinedRequestsConsumeExactlyOneMessage) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second =
      "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
  const std::string raw = first + second;
  HttpParser p(HttpParser::Mode::kRequest);
  const std::size_t consumed = p.feed(raw.data(), raw.size());
  EXPECT_EQ(consumed, first.size());  // stops at the message boundary
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.message().target, "/a");
  p.reset();
  EXPECT_EQ(p.feed(raw.data() + consumed, raw.size() - consumed),
            second.size());
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.message().target, "/b");
  EXPECT_EQ(p.message().body, "hi");
}

TEST(HttpParser, KeepAliveVersionRules) {
  struct Case {
    const char* raw;
    bool keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
  };
  for (const Case& c : cases) {
    HttpParser p(HttpParser::Mode::kRequest);
    p.feed(c.raw, std::strlen(c.raw));
    ASSERT_TRUE(p.done()) << c.raw;
    EXPECT_EQ(p.message().keep_alive, c.keep_alive) << c.raw;
  }
}

TEST(HttpParser, ResponseBodyTerminatedByEof) {
  const std::string raw = "HTTP/1.1 200 OK\r\n\r\npartial";
  HttpParser p(HttpParser::Mode::kResponse);
  EXPECT_EQ(p.feed(raw.data(), raw.size()), raw.size());
  EXPECT_FALSE(p.done());  // no Content-Length: body runs to EOF
  p.finish_eof();
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.message().status, 200);
  EXPECT_EQ(p.message().body, "partial");
}

// ---------------------------------------------------------------------------
// HttpParser: hostile input — never crash, deterministic 400/413
// ---------------------------------------------------------------------------

TEST(HttpParser, TruncatedRequestIsInProgressNotDone) {
  const std::string raw =
      "POST /plan HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  HttpParser p(HttpParser::Mode::kRequest);
  p.feed(raw.data(), raw.size());
  EXPECT_FALSE(p.done());
  EXPECT_FALSE(p.failed());
  EXPECT_TRUE(p.in_progress());  // a disconnect here = truncated message
}

TEST(HttpParser, MalformedStartLineIs400) {
  const char* bad[] = {
      "NOT-HTTP\r\n\r\n",
      "GET\r\n\r\n",
      "GET /x HTTP/2.0\r\n\r\n",
      "GET /x FTP/1.1\r\n\r\n",
  };
  for (const char* raw : bad) {
    HttpParser p(HttpParser::Mode::kRequest);
    p.feed(raw, std::strlen(raw));
    ASSERT_TRUE(p.failed()) << raw;
    EXPECT_EQ(p.error_status(), 400) << raw;
  }
}

TEST(HttpParser, BadContentLengthIs400) {
  const char* bad[] = {
      "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
      // Duplicate with mismatched values.
      "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
      // POST without any Content-Length cannot be framed.
      "POST / HTTP/1.1\r\n\r\n",
      // The plan protocol never chunks.
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
  };
  for (const char* raw : bad) {
    HttpParser p(HttpParser::Mode::kRequest);
    p.feed(raw, std::strlen(raw));
    ASSERT_TRUE(p.failed()) << raw;
    EXPECT_EQ(p.error_status(), 400) << raw;
  }
}

TEST(HttpParser, OversizedStartLineIs413) {
  std::string raw = "GET /" + std::string(9000, 'a') + " HTTP/1.1\r\n\r\n";
  HttpParser p(HttpParser::Mode::kRequest);
  p.feed(raw.data(), raw.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error(), HttpParseError::kHeadersTooLarge);
  EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParser, OversizedHeadersAre413) {
  std::string raw = "GET / HTTP/1.1\r\nX-Big: " + std::string(20000, 'b') +
                    "\r\n\r\n";
  HttpParser p(HttpParser::Mode::kRequest);
  p.feed(raw.data(), raw.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParser, TooManyHeadersAre413) {
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 101; ++i)
    raw += "X-" + std::to_string(i) + ": v\r\n";
  raw += "\r\n";
  HttpParser p(HttpParser::Mode::kRequest);
  p.feed(raw.data(), raw.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParser, BodyBeyondLimitIs413) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  const std::string raw =
      "POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
  HttpParser p(HttpParser::Mode::kRequest, limits);
  p.feed(raw.data(), raw.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error(), HttpParseError::kBodyTooLarge);
  EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParser, GarbageBytesNeverCrash) {
  // Pseudo-random garbage at every length: the parser must land in done
  // or error, never read out of bounds (ASan checks that part).
  std::uint64_t state = 42;
  for (int len = 0; len < 512; ++len) {
    std::string raw(static_cast<std::size_t>(len), '\0');
    for (char& c : raw) {
      state = util::splitmix64(state);
      c = static_cast<char>(state & 0xff);
    }
    HttpParser p(HttpParser::Mode::kRequest);
    const std::size_t consumed = p.feed(raw.data(), raw.size());
    EXPECT_LE(consumed, raw.size());
    if (p.failed()) {
      const int status = p.error_status();
      EXPECT_TRUE(status == 400 || status == 413);
    }
  }
}

// ---------------------------------------------------------------------------
// Target helpers
// ---------------------------------------------------------------------------

TEST(HttpTarget, PathAndQueryParams) {
  EXPECT_EQ(target_path("/plan?x=1"), "/plan");
  EXPECT_EQ(target_path("/plan"), "/plan");
  EXPECT_EQ(query_param("/e?model=t5&layers=2", "model"), "t5");
  EXPECT_EQ(query_param("/e?model=t5&layers=2", "layers"), "2");
  EXPECT_EQ(query_param("/e?model=t5", "absent"), "");
  EXPECT_EQ(query_param("/e?mesh=2x4&pct=a%20b", "pct"), "a b");
  EXPECT_EQ(query_param("/e?s=a+b", "s"), "a b");
}

// ---------------------------------------------------------------------------
// ShardScheme: deterministic single-owner placement
// ---------------------------------------------------------------------------

TEST(ShardScheme, EveryZooKeyMapsToExactlyOneShard) {
  // Acceptance criterion: for every zoo model, the PlanKey maps to one
  // shard in [0, N), and independent ShardScheme instances (router,
  // every server's misroute guard) agree on which.
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  std::vector<service::PlanKey> keys;
  for (const auto& entry : models::table1_zoo()) {
    Graph g = entry.build();
    ir::TapGraph tg = ir::lower(g);
    keys.push_back(service::make_plan_key(tg, opts, /*sweep_mesh=*/true));
  }
  ASSERT_FALSE(keys.empty());
  for (int n : {1, 2, 3, 5, 8}) {
    ShardScheme a(n), b(n);
    for (const service::PlanKey& key : keys) {
      const int owner = a.shard_for(key);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, n);
      EXPECT_EQ(owner, b.shard_for(key));  // pure function of the scheme
    }
  }
}

TEST(ShardScheme, SingleShardOwnsEverything) {
  ShardScheme one(1);
  std::uint64_t d = 7;
  for (int i = 0; i < 1000; ++i) {
    d = util::splitmix64(d);
    EXPECT_EQ(one.shard_for_digest(d), 0);
  }
}

TEST(ShardScheme, BalancedOverSyntheticKeyspace) {
  const int n = 8;
  ShardScheme scheme(n);
  std::map<int, int> counts;
  std::uint64_t d = 1;
  const int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    d = util::splitmix64(d);
    ++counts[scheme.shard_for_digest(d)];
  }
  EXPECT_EQ(static_cast<int>(counts.size()), n);
  for (const auto& [shard, count] : counts) {
    // With 64 vnodes the share stays within ~2x of fair.
    EXPECT_GT(count, kKeys / n / 3) << "shard " << shard << " starved";
    EXPECT_LT(count, kKeys * 3 / n) << "shard " << shard << " overloaded";
  }
}

TEST(ShardScheme, GrowthOnlyMovesKeysToTheNewShard) {
  const int n = 4;
  ShardScheme before(n), after(n + 1);
  std::uint64_t d = 99;
  int moved = 0, total = 8000;
  for (int i = 0; i < total; ++i) {
    d = util::splitmix64(d);
    const int a = before.shard_for_digest(d);
    const int b = after.shard_for_digest(d);
    if (a != b) {
      ++moved;
      // Consistency: a key never migrates between pre-existing shards.
      EXPECT_EQ(b, n);
    }
  }
  // ~1/(N+1) of the keyspace moves; allow generous slack.
  EXPECT_GT(moved, total / 20);
  EXPECT_LT(moved, total / 2);
}

// ---------------------------------------------------------------------------
// HttpServer end-to-end (ephemeral ports; no fixed-port races)
// ---------------------------------------------------------------------------

HttpMessage echo_handler(const HttpMessage& req) {
  return make_response(200, "text/plain", req.method + " " + req.target +
                                              " [" + req.body + "]");
}

/// Blocking raw-socket client for the wire-level tests.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

std::string read_until_closed(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(HttpServer, BindsEphemeralPortAndServes) {
  HttpServerOptions opts;
  opts.port = 0;
  HttpServer server(echo_handler, opts);
  server.start();
  ASSERT_GT(server.bound_port(), 0);

  HttpConnection conn({"127.0.0.1", server.bound_port()}, {});
  HttpMessage req;
  req.method = "POST";
  req.target = "/echo";
  req.body = "ping";
  HttpMessage resp = conn.request(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "POST /echo [ping]");

  // Keep-alive: a second request on the same connection.
  req.body = "pong";
  resp = conn.request(req);
  EXPECT_EQ(resp.body, "POST /echo [pong]");
  server.stop();
  EXPECT_GE(server.requests_served(), 2u);
}

TEST(HttpServer, MalformedRequestGets400ThenClose) {
  HttpServer server(echo_handler, {});
  server.start();
  const int fd = connect_loopback(server.bound_port());
  const std::string bad = "NONSENSE\r\n\r\n";
  ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
            static_cast<ssize_t>(bad.size()));
  const std::string reply = read_until_closed(fd);
  EXPECT_NE(reply.find("400"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(HttpServer, OversizedHeadersGet413) {
  HttpServer server(echo_handler, {});
  server.start();
  const int fd = connect_loopback(server.bound_port());
  const std::string big =
      "GET / HTTP/1.1\r\nX-Big: " + std::string(40000, 'x') + "\r\n\r\n";
  (void)::send(fd, big.data(), big.size(), MSG_NOSIGNAL);
  const std::string reply = read_until_closed(fd);
  EXPECT_NE(reply.find("413"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(HttpServer, PipelinedRequestsAnsweredInOrder) {
  HttpServer server(echo_handler, {});
  server.start();
  const int fd = connect_loopback(server.bound_port());
  const std::string two =
      "GET /first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\nConnection: "
      "close\r\n\r\n";
  ASSERT_EQ(::send(fd, two.data(), two.size(), 0),
            static_cast<ssize_t>(two.size()));
  const std::string reply = read_until_closed(fd);
  EXPECT_NE(reply.find("/first"), std::string::npos);
  EXPECT_NE(reply.find("/second"), std::string::npos);
  EXPECT_LT(reply.find("/first"), reply.find("/second"));
  ::close(fd);
  server.stop();
}

TEST(HttpServer, MidBodyDisconnectDoesNotCrash) {
  HttpServer server(echo_handler, {});
  server.start();
  {
    const int fd = connect_loopback(server.bound_port());
    const std::string partial =
        "POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\nonly-a-bit";
    ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
              static_cast<ssize_t>(partial.size()));
    ::close(fd);  // vanish mid-body
  }
  // The server must shrug that off and keep serving.
  HttpConnection conn({"127.0.0.1", server.bound_port()}, {});
  HttpMessage req;
  req.method = "GET";
  req.target = "/alive";
  EXPECT_EQ(conn.request(req).status, 200);
  server.stop();
}

TEST(HttpServer, StopFinishesInFlightRequests) {
  std::atomic<bool> entered{false};
  HttpServerOptions opts;
  opts.drain_deadline_ms = 10000.0;
  HttpServer server(
      [&](const HttpMessage& req) {
        entered.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return echo_handler(req);
      },
      opts);
  server.start();

  std::string reply;
  std::thread client([&] {
    const int fd = connect_loopback(server.bound_port());
    const std::string raw = "GET /slow HTTP/1.1\r\n\r\n";
    (void)::send(fd, raw.data(), raw.size(), 0);
    reply = read_until_closed(fd);
    ::close(fd);
  });
  while (!entered.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  server.stop();  // must wait for the in-flight /slow, then close
  client.join();
  EXPECT_NE(reply.find("200"), std::string::npos);
  EXPECT_NE(reply.find("/slow"), std::string::npos);
  // The drained response tells the client the connection is over.
  EXPECT_NE(reply.find("Connection: close"), std::string::npos);
}

TEST(PlanClient, RetriesThenThrowsOnDeadEndpoint) {
  // Grab (then release) an ephemeral port so nothing listens on it.
  int dead_port = 0;
  {
    HttpServer probe(echo_handler, {});
    probe.start();
    dead_port = probe.bound_port();
    probe.stop();
  }
  ClientOptions copts;
  copts.retries = 2;
  copts.backoff_ms = 1.0;
  HttpConnection conn({"127.0.0.1", dead_port}, copts);
  HttpMessage req;
  req.method = "GET";
  req.target = "/";
  EXPECT_THROW(conn.request(req), HttpClientError);
}

TEST(PlanClient, ParseUrl) {
  Endpoint ep = parse_url("http://127.0.0.1:8080");
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 8080);
  ep = parse_url("http://localhost:9/plan");
  EXPECT_EQ(ep.host, "localhost");
  EXPECT_EQ(ep.port, 9);
  EXPECT_THROW(parse_url("ftp://x"), HttpClientError);
  EXPECT_THROW(parse_url("http://x:0"), HttpClientError);
}

// ---------------------------------------------------------------------------
// Wire protocol + plan endpoint: the byte-identity acceptance criterion
// ---------------------------------------------------------------------------

TEST(Wire, ModelSpecJsonRoundTripAndStrictness) {
  service::ModelSpec spec = service::model_spec_from_json(
      R"({"model":"t5","layers":2,"nodes":1,"gpus":8,"mesh":[2,4]})");
  EXPECT_EQ(spec.model, "t5");
  EXPECT_EQ(spec.layers, 2);
  EXPECT_EQ(spec.dp, 2);
  EXPECT_EQ(spec.tp, 4);
  EXPECT_FALSE(spec.sweep());
  // Canonical spelling parses back to the same spec.
  service::ModelSpec again =
      service::model_spec_from_json(service::model_spec_to_json(spec));
  EXPECT_EQ(service::model_spec_to_json(again),
            service::model_spec_to_json(spec));

  EXPECT_THROW(service::model_spec_from_json(R"({"mdoel":"t5"})"),
               std::exception);  // typo'd key fails loudly
  EXPECT_THROW(service::model_spec_from_json(R"({"model":"vgg"})"),
               std::exception);
  EXPECT_THROW(service::model_spec_from_json(R"({"layers":0})"),
               std::exception);
  EXPECT_THROW(service::model_spec_from_json("not json"), std::exception);
  // Numbers must be integers that fit the field: no truncation, no
  // wrapping past int, no float->int overflow.
  const char* const kBadNumbers[] = {
      R"({"model":"t5","layers":4294967297})",
      R"({"model":"t5","layers":2.5})",
      R"({"model":"t5","layers":1e300})",
      R"({"model":"t5","gpus":4294967304})",
      R"({"model":"t5","nodes":-4294967295})",
      R"({"model":"t5","mesh":[4294967298,4]})",
  };
  for (const char* body : kBadNumbers)
    EXPECT_THROW(service::model_spec_from_json(body), CheckError) << body;
}

TEST(Wire, QuerySpecMatchesJsonSpec) {
  const service::ModelSpec from_query = service::model_spec_from_query(
      "/explain?model=t5&layers=2&nodes=1&gpus=8&mesh=2x4");
  const service::ModelSpec from_json = service::model_spec_from_json(
      R"({"model":"t5","layers":2,"nodes":1,"gpus":8,"mesh":"2x4"})");
  EXPECT_EQ(service::model_spec_to_json(from_query),
            service::model_spec_to_json(from_json));
  // Same strictness: an int field past int throws instead of wrapping.
  EXPECT_THROW(
      service::model_spec_from_query("/explain?model=t5&layers=4294967297"),
      CheckError);
}

/// One small fixed-mesh problem the end-to-end tests share (fixed mesh
/// keeps the search fast; determinism is mesh-agnostic).
service::ModelSpec small_spec() {
  service::ModelSpec spec;
  spec.model = "t5";
  spec.layers = 2;
  spec.nodes = 1;
  spec.gpus = 8;
  spec.dp = 2;
  spec.tp = 4;
  return spec;
}

TEST(PlanEndToEnd, HttpBytesEqualInProcessBytes) {
  const service::ModelSpec spec = small_spec();

  // In-process answer.
  Graph g = service::build_spec_model(spec);
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts = service::options_for_spec(spec, 1);
  service::PlannerService svc;
  service::PlanRequest req{&tg, opts, spec.sweep()};
  const service::PlanKey key = svc.key_for(req);
  const std::string in_process =
      service::plan_response_json(tg, key, svc.plan(req));

  // Served answer — fresh service so nothing is shared but the algorithm.
  service::PlannerService served_svc;
  PlanHandler handler(&served_svc, {});
  HttpServer server(
      [&handler](const HttpMessage& r) { return handler.handle(r); }, {});
  server.start();
  HttpConnection conn({"127.0.0.1", server.bound_port()}, {});
  HttpMessage post;
  post.method = "POST";
  post.target = "/plan";
  post.body = service::model_spec_to_json(spec);
  HttpMessage resp = conn.request(post);
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, in_process);  // byte-identical, per the contract

  // And again: the cache-served answer is the same bytes too.
  HttpMessage resp2 = conn.request(post);
  ASSERT_EQ(resp2.status, 200);
  EXPECT_EQ(resp2.body, in_process);
  server.stop();
}

TEST(PlanEndToEnd, MisroutedKeyGets421NamingTheOwner) {
  const service::ModelSpec spec = small_spec();
  Graph g = service::build_spec_model(spec);
  ir::TapGraph tg = ir::lower(g);
  const service::PlanKey key = service::make_plan_key(
      tg, service::options_for_spec(spec, 1), spec.sweep());

  const int shards = 4;
  ShardScheme scheme(shards);
  const int owner = scheme.shard_for(key);
  const int wrong = (owner + 1) % shards;

  service::PlannerService svc;
  PlanHandlerOptions hopts;
  hopts.num_shards = shards;
  hopts.shard_id = wrong;
  PlanHandler handler(&svc, hopts);
  HttpMessage post;
  post.method = "POST";
  post.target = "/plan";
  post.body = service::model_spec_to_json(spec);
  HttpMessage resp = handler.handle(post);
  EXPECT_EQ(resp.status, 421);
  EXPECT_NE(resp.body.find("misrouted"), std::string::npos);
  EXPECT_NE(resp.body.find(std::to_string(owner)), std::string::npos);

  // The owning shard answers.
  hopts.shard_id = owner;
  PlanHandler owning(&svc, hopts);
  EXPECT_EQ(owning.handle(post).status, 200);
}

TEST(PlanEndToEnd, HandlerRoutesAndErrors) {
  service::PlannerService svc;
  PlanHandler handler(&svc, {});

  HttpMessage req;
  req.method = "GET";
  req.target = "/healthz";
  HttpMessage resp = handler.handle(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);

  req.target = "/metrics";
  EXPECT_EQ(handler.handle(req).status, 200);

  req.target = "/nope";
  EXPECT_EQ(handler.handle(req).status, 404);

  req.method = "POST";
  req.target = "/healthz";
  EXPECT_EQ(handler.handle(req).status, 405);

  req.target = "/plan";
  req.body = "{\"model\":\"vgg\"}";
  EXPECT_EQ(handler.handle(req).status, 400);
}

TEST(PlanEndToEnd, ModelsCachedGaugeCountsArchitectures) {
  // One lowered model per architecture: another mesh, or /explain, of the
  // same model reuses it.
  service::PlannerService svc;
  PlanHandler handler(&svc, {});
  const obs::Gauge* cached = obs::registry().gauge("net.models.cached");
  HttpMessage plan;
  plan.method = "POST";
  plan.target = "/plan";
  plan.body = "{\"model\":\"t5\",\"layers\":2,\"nodes\":1,\"gpus\":8,"
              "\"mesh\":[2,4]}";
  ASSERT_EQ(handler.handle(plan).status, 200);
  EXPECT_EQ(cached->value(), 1.0);
  HttpMessage explain;
  explain.method = "GET";
  explain.target = "/explain?model=t5&layers=2&nodes=1&gpus=8&mesh=1x8";
  ASSERT_EQ(handler.handle(explain).status, 200);
  EXPECT_EQ(cached->value(), 1.0);
  plan.body = "{\"model\":\"t5\",\"layers\":3,\"nodes\":1,\"gpus\":8,"
              "\"mesh\":[2,4]}";
  ASSERT_EQ(handler.handle(plan).status, 200);
  EXPECT_EQ(cached->value(), 2.0);
}

// ---------------------------------------------------------------------------
// Traceparent propagation (ISSUE 9): strict parse, graceful rejection
// ---------------------------------------------------------------------------

TEST(Traceparent, FormatParseRoundTrip) {
  const obs::RequestContext ctx = obs::generate_request_context();
  const std::string header = obs::format_traceparent(ctx);
  ASSERT_EQ(header.size(), 55u);
  obs::RequestContext parsed;
  ASSERT_TRUE(obs::parse_traceparent(header, &parsed));
  EXPECT_EQ(parsed.trace_hi, ctx.trace_hi);
  EXPECT_EQ(parsed.trace_lo, ctx.trace_lo);
  // This hop's span id is the next hop's parent; the receiver assigns its
  // own span id later.
  EXPECT_EQ(parsed.parent_span_id, ctx.span_id);
  EXPECT_EQ(parsed.span_id, 0u);
  EXPECT_TRUE(parsed.sampled);

  const obs::RequestContext unsampled =
      obs::generate_request_context(/*sampled=*/false);
  obs::RequestContext p2;
  ASSERT_TRUE(
      obs::parse_traceparent(obs::format_traceparent(unsampled), &p2));
  EXPECT_FALSE(p2.sampled);
}

TEST(Traceparent, GeneratedContextsAreUniqueAndValid) {
  std::string last_trace;
  for (int i = 0; i < 64; ++i) {
    const obs::RequestContext ctx = obs::generate_request_context();
    EXPECT_TRUE(ctx.valid());
    EXPECT_NE(ctx.span_id, 0u);
    const std::string hex = ctx.trace_hex();
    EXPECT_EQ(hex.size(), 32u);
    EXPECT_NE(hex, last_trace);
    last_trace = hex;
  }
}

TEST(Traceparent, RejectsMalformedHeaders) {
  const char* bad[] = {
      "",
      "00",
      // Truncated (no flags field).
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
      // Version 00 must be exactly 55 chars.
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011",
      // All-zero trace id / parent id are invalid per spec.
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
      // Version ff is forbidden.
      "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      // Uppercase hex is not valid traceparent.
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
      // Dashes in the wrong places.
      "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",
      // Non-hex bytes in each field.
      "0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902zz-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",
  };
  for (const char* h : bad) {
    obs::RequestContext ctx;
    ctx.trace_hi = 7;  // sentinel: a failed parse must leave ctx untouched
    EXPECT_FALSE(obs::parse_traceparent(h, &ctx)) << h;
    EXPECT_EQ(ctx.trace_hi, 7u) << h;
  }
  // Future versions: the version-00-shaped prefix parses; anything after
  // it must start with a dash.
  obs::RequestContext ctx;
  EXPECT_TRUE(obs::parse_traceparent(
      "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &ctx));
  EXPECT_TRUE(obs::parse_traceparent(
      "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
      &ctx));
  EXPECT_FALSE(obs::parse_traceparent(
      "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01extra",
      &ctx));
}

TEST(Traceparent, TruncationAndCorruptionFuzzNeverCrash) {
  const std::string valid =
      obs::format_traceparent(obs::generate_request_context());
  ASSERT_EQ(valid.size(), 55u);

  // Every strict prefix is malformed and must be rejected cleanly.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    obs::RequestContext ctx;
    EXPECT_FALSE(obs::parse_traceparent(valid.substr(0, len), &ctx))
        << "prefix length " << len;
  }
  // Byte-at-a-time corruption at every position: some mutations stay
  // valid hex (parse succeeds), the rest must fail — either way the
  // parser returns, never crashes or reads out of bounds (ASan's half).
  std::uint64_t state = 99;
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    for (int round = 0; round < 8; ++round) {
      std::string mutated = valid;
      state = util::splitmix64(state);
      mutated[pos] = static_cast<char>(state & 0xff);
      obs::RequestContext ctx;
      (void)obs::parse_traceparent(mutated, &ctx);
    }
  }
  // Pseudo-random garbage at every length, like the HttpParser sweep.
  for (int len = 0; len < 160; ++len) {
    std::string raw(static_cast<std::size_t>(len), '\0');
    for (char& c : raw) {
      state = util::splitmix64(state);
      c = static_cast<char>(state & 0xff);
    }
    obs::RequestContext ctx;
    (void)obs::parse_traceparent(raw, &ctx);
  }
}

TEST(Traceparent, HandlerFallsBackToFreshTraceOnBadHeader) {
  service::PlannerService svc;
  PlanHandler handler(&svc, {});
  HttpMessage req;
  req.method = "GET";
  req.target = "/healthz";
  req.set_header("traceparent", "garbage-not-a-traceparent");
  HttpMessage resp = handler.handle(req);
  EXPECT_EQ(resp.status, 200);
  // The response still carries a well-formed, freshly generated header.
  const std::string* echo = resp.find_header("traceparent");
  ASSERT_NE(echo, nullptr);
  obs::RequestContext parsed;
  EXPECT_TRUE(obs::parse_traceparent(*echo, &parsed));
  EXPECT_TRUE(parsed.valid());
}

// ---------------------------------------------------------------------------
// Flight recorder + healthz + trace correlation end to end (ISSUE 9)
// ---------------------------------------------------------------------------

TEST(PlanEndToEnd, HealthzHasIdentityBody) {
  service::PlannerService svc;
  PlanHandlerOptions hopts;
  hopts.num_shards = 3;
  hopts.shard_id = 1;
  PlanHandler handler(&svc, hopts);
  HttpMessage req;
  req.method = "GET";
  req.target = "/healthz";
  HttpMessage resp = handler.handle(req);
  ASSERT_EQ(resp.status, 200);
  const util::JsonValue doc = util::JsonValue::parse(resp.body);
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_EQ(doc.at("shard").as_int(), 1);
  EXPECT_EQ(doc.at("shards").as_int(), 3);
  EXPECT_EQ(doc.at("version").as_string(), kServeVersion);
  EXPECT_EQ(doc.at("plan_response_version").as_int(),
            service::kPlanResponseVersion);
  EXPECT_GE(doc.at("uptime_s").as_number(), 0.0);
  EXPECT_GE(doc.at("requests").as_int(), 0);
  // The scheme fingerprint matches the handler's ShardScheme, hex-spelled.
  const std::string scheme_hex = doc.at("scheme").as_string();
  EXPECT_EQ(scheme_hex.size(), 16u);
  char expect[17];
  std::snprintf(expect, sizeof expect, "%016llx",
                static_cast<unsigned long long>(
                    handler.scheme().fingerprint()));
  EXPECT_EQ(scheme_hex, expect);
  // A different layout reports a different fingerprint.
  service::PlannerService svc2;
  PlanHandler other(&svc2, {});
  EXPECT_NE(other.scheme().fingerprint(), handler.scheme().fingerprint());
}

TEST(PlanEndToEnd, TraceIdEchoedAndInFlightRing) {
  service::PlannerService svc;
  PlanHandler handler(&svc, {});
  const std::string trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  HttpMessage post;
  post.method = "POST";
  post.target = "/plan";
  post.body = service::model_spec_to_json(small_spec());
  post.set_header("traceparent",
                  "00-" + trace_id + "-00f067aa0ba902b7-01");
  HttpMessage resp = handler.handle(post);
  ASSERT_EQ(resp.status, 200);
  // The response echoes the SAME trace id (with this hop's span id).
  const std::string* echo = resp.find_header("traceparent");
  ASSERT_NE(echo, nullptr);
  EXPECT_NE(echo->find(trace_id), std::string::npos);
  // And the trace id never leaks into the plan bytes.
  EXPECT_EQ(resp.body.find(trace_id), std::string::npos);

  // The ring has the request, fully attributed.
  const std::vector<obs::FlightRecord> recs = handler.recorder().snapshot(8);
  ASSERT_FALSE(recs.empty());
  const obs::FlightRecord& rec = recs.front();
  EXPECT_EQ(rec.trace_hi, 0x4bf92f3577b34da6ull);
  EXPECT_EQ(rec.trace_lo, 0xa3ce929d0e0e4736ull);
  EXPECT_STREQ(rec.route, "plan");
  EXPECT_EQ(rec.status, 200);
  EXPECT_STREQ(rec.served, "searched");
  EXPECT_STREQ(rec.provenance, "complete");
  EXPECT_STREQ(rec.deadline_class, "none");
  EXPECT_NE(rec.key_digest, 0u);
  EXPECT_TRUE(rec.sampled);

  // GET /debug/requests returns the same story as JSON — and is itself
  // never recorded (no self-pollution).
  HttpMessage dbg;
  dbg.method = "GET";
  dbg.target = "/debug/requests?n=8";
  HttpMessage dresp = handler.handle(dbg);
  ASSERT_EQ(dresp.status, 200);
  EXPECT_NE(dresp.body.find(trace_id), std::string::npos);
  const util::JsonValue doc = util::JsonValue::parse(dresp.body);
  bool found = false;
  for (const util::JsonValue& r : doc.at("requests").items()) {
    if (r.at("trace").as_string() == trace_id) {
      found = true;
      EXPECT_EQ(r.at("route").as_string(), "plan");
      EXPECT_EQ(r.at("status").as_int(), 200);
      EXPECT_EQ(r.at("served").as_string(), "searched");
    }
    EXPECT_NE(r.at("route").as_string(), "debug_requests");
  }
  EXPECT_TRUE(found);

  // A repeat of the same spec under a new trace serves from cache and the
  // ring says so.
  post.set_header("traceparent",
                  "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab-00f067aa0ba902b7"
                  "-01");
  ASSERT_EQ(handler.handle(post).status, 200);
  const std::vector<obs::FlightRecord> recs2 =
      handler.recorder().snapshot(1);
  ASSERT_FALSE(recs2.empty());
  EXPECT_STREQ(recs2.front().served, "memory");
}

TEST(PlanEndToEnd, ChromeTraceCorrelatesClientServerPipeline) {
  service::PlannerService svc;
  PlanHandler handler(&svc, {});
  HttpServer server(
      [&handler](const HttpMessage& r) { return handler.handle(r); }, {});
  server.start();

  obs::TraceSession session;
  session.start();
  std::string trace_hex;
  {
    // The CLI's serve path in miniature: root the trace on the client
    // thread, let PlanClient forward it as a traceparent header.
    const obs::RequestContext rctx = obs::generate_request_context();
    trace_hex = rctx.trace_hex();
    obs::ScopedRequestContext scope(rctx);

    service::ModelSpec spec = small_spec();
    spec.layers = 3;  // fresh key: forces a real search through the pipeline
    Graph g = service::build_spec_model(spec);
    ir::TapGraph tg = ir::lower(g);
    const service::PlanKey key = service::make_plan_key(
        tg, service::options_for_spec(spec, 1), spec.sweep());
    PlanClient client(
        {"http://127.0.0.1:" + std::to_string(server.bound_port())});
    HttpMessage resp =
        client.post_plan(key, service::model_spec_to_json(spec));
    ASSERT_EQ(resp.status, 200);
    const std::string* echo = resp.find_header("traceparent");
    ASSERT_NE(echo, nullptr);
    EXPECT_NE(echo->find(trace_hex), std::string::npos);
  }
  server.stop();  // join workers before reading the session
  session.stop();

  // ONE trace id correlates the client hop and the planner's pass spans
  // executed on the server's pool threads — the acceptance criterion.
  bool client_span = false, pass_span = false;
  for (const obs::TraceEvent& e : session.events()) {
    const auto it = e.args.find("trace");
    if (it == e.args.end() || it->second != trace_hex) continue;
    if (e.name == "net.client.request") client_span = true;
    if (e.category == "planner.pass") pass_span = true;
  }
  EXPECT_TRUE(client_span);
  EXPECT_TRUE(pass_span);
  EXPECT_NE(session.to_chrome_json().find(trace_hex), std::string::npos);
}

TEST(Wire, PlanBytesUnchangedByTracing) {
  // The determinism boundary: plan-response bytes are a pure function of
  // the PlanKey — identical with tracing off, on-and-sampled, and
  // on-but-unsampled, at 1 and 4 search threads.
  for (const int threads : {1, 4}) {
    for (const int layers : {2, 3}) {
      service::ModelSpec spec = small_spec();
      spec.layers = layers;
      Graph g = service::build_spec_model(spec);
      ir::TapGraph tg = ir::lower(g);
      const core::TapOptions opts =
          service::options_for_spec(spec, threads);
      const service::PlanRequest req{&tg, opts, spec.sweep()};

      const auto run = [&](int mode) {
        service::PlannerService fresh;  // no cross-mode cache reuse
        const service::PlanKey key = fresh.key_for(req);
        obs::TraceSession session;
        std::optional<obs::ScopedRequestContext> scope;
        if (mode > 0) {
          session.start();
          scope.emplace(
              obs::generate_request_context(/*sampled=*/mode == 1));
        }
        std::string bytes =
            service::plan_response_json(tg, key, fresh.plan(req));
        scope.reset();
        session.stop();
        return bytes;
      };
      const std::string plain = run(0);
      EXPECT_EQ(run(1), plain)
          << "sampled tracing changed plan bytes (threads " << threads
          << ", layers " << layers << ")";
      EXPECT_EQ(run(2), plain)
          << "unsampled tracing changed plan bytes (threads " << threads
          << ", layers " << layers << ")";
    }
  }
}

}  // namespace
}  // namespace tap::net
