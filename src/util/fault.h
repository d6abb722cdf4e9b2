// Deterministic fault injection (ISSUE 5). A FaultInjector maps named
// fault *sites* — stable dotted strings like "cache.disk.read" placed at
// the I/O and scheduling seams the robustness layer must survive — to
// rules parsed from a spec string:
//
//   site=throw[:P]        throw FaultInjectedError with probability P
//   site=fail[:P]         make TAP_FAULT_FAIL(site) return true with P
//   site=delay:MS[:P]     sleep MS milliseconds with probability P
//
// e.g. "cache.disk.read=throw:0.5,service.search=delay:10:0.25".
// P defaults to 1.
//
// Planner and service sites model transient failures of one step:
//   planner.family    before each family's search (core/planner_pipeline)
//   service.search    before a PlannerService search
//   cache.disk.read   before a disk-tier record's pread (service/plan_cache)
//   cache.disk.write  before a disk-tier record's append
//
// Serving-tier network sites (ISSUE 10) live in net/http_server.cpp and
// model the failure modes the fleet client must survive:
//   net.accept         fail  — accepted connection dropped before a read
//   net.read.stall     delay — slow read before recv()
//   net.write.reset    fail  — response write fails, connection dies
//   net.respond.delay  delay — stall between handling and responding
// All four are `fail`/`delay` sites: the server never throws for an
// injected network fault, it degrades exactly like it would for a real
// peer reset, and the client's retry/failover machinery absorbs it.
//
// Decisions are seeded and site-keyed: the k-th hit of a site injects iff
// hash(seed, site, k) < P, so a (spec, seed) pair replays the same
// injection sequence per site on every run — the fault-injection tests
// predict counter values exactly instead of asserting "some failures
// happened".
//
// Off-by-default hot path: TAP_FAULT_POINT compiles to ONE relaxed
// atomic load of the process-global injector pointer (mirroring the
// TAP_SPAN gate in obs/trace.h), so the sites stay compiled into
// production builds. Past that gate, fault_hit() counts itself in flight
// before it loads the pointer again, and install_fault_injector waits for
// the in-flight count to drain: once install returns, no thread is inside
// (or about to enter) the previous injector's hit(), so the caller may
// destroy it even while server threads keep hitting sites. The injector
// is installed explicitly (install_fault_injector / ScopedFaultInjector,
// tap_cli --fault) or from the TAP_FAULT / TAP_FAULT_SEED environment
// variables at process start (how CI runs whole suites under injected
// faults).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

namespace tap::util {

/// Thrown by sites configured with the `throw` action. Deliberately NOT a
/// CheckError: fault-tolerant code distinguishes injected transient I/O
/// failures (retryable) from corruption/logic failures (not retryable).
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

class FaultInjector {
 public:
  enum class Action : std::uint8_t { kThrow, kFail, kDelay };

  struct Rule {
    Action action = Action::kThrow;
    double probability = 1.0;
    double delay_ms = 0.0;
  };

  /// Parses `spec` (grammar above). Throws CheckError on malformed input:
  /// empty sites, unknown actions, probabilities outside [0, 1], negative
  /// delays, missing '='.
  explicit FaultInjector(const std::string& spec, std::uint64_t seed = 0);

  /// The entry behind the macros. Looks up `site`; on a configured site
  /// draws the seeded decision for this hit and then throws (kThrow),
  /// sleeps and returns false (kDelay), or returns true (kFail).
  /// Unconfigured sites and losing draws return false. Thread-safe.
  bool hit(const char* site);

  /// Observed hit / injected counts per site (0 for unknown sites).
  std::uint64_t hits(const std::string& site) const;
  std::uint64_t injected(const std::string& site) const;

  const std::string& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }

 private:
  struct Site {
    Rule rule;
    std::uint64_t site_hash = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> injected{0};
  };

  /// Immutable after construction: hit() only reads the map and bumps the
  /// per-site atomics.
  std::map<std::string, std::unique_ptr<Site>, std::less<>> sites_;
  std::string spec_;
  std::uint64_t seed_ = 0;
};

/// The process-global injector, or nullptr (the default). One relaxed
/// atomic load — THE disabled fast path. Dereferencing the result is
/// only safe while the caller keeps that injector installed; sites go
/// through fault_hit().
FaultInjector* fault_injector();

/// Calls hit(site) on the installed injector, if any, and keeps that
/// injector alive until hit() returns (or throws). What the macros call
/// once the fast path has seen an injector.
bool fault_hit(const char* site);

/// Installs `fi` as the global injector (nullptr disables); returns the
/// previous one once no thread is inside its hit() any more, so the
/// caller, which keeps ownership, may then destroy it.
FaultInjector* install_fault_injector(FaultInjector* fi);

/// RAII install/restore for tests. The spec constructor owns its
/// injector; the nullptr constructor just disables injection in scope
/// (shielding a test from an environment-installed injector).
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(const std::string& spec,
                               std::uint64_t seed = 0)
      : own_(std::make_unique<FaultInjector>(spec, seed)),
        prev_(install_fault_injector(own_.get())) {}
  explicit ScopedFaultInjector(std::nullptr_t)
      : prev_(install_fault_injector(nullptr)) {}
  ~ScopedFaultInjector() { install_fault_injector(prev_); }

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

  FaultInjector& injector() { return *own_; }

 private:
  std::unique_ptr<FaultInjector> own_;
  FaultInjector* prev_;
};

/// TAP_FAULT_FAIL helper: one gate load, then the site draw.
inline bool fault_fail(const char* site) {
  return fault_injector() != nullptr && fault_hit(site);
}

}  // namespace tap::util

/// Statement fault point: may throw or delay, never alters control flow
/// otherwise. Place at seams where an exception models the failure.
#define TAP_FAULT_POINT(site)                                          \
  do {                                                                 \
    if (::tap::util::fault_injector() != nullptr)                      \
      ::tap::util::fault_hit(site);                                    \
  } while (0)

/// Expression fault point for "return an error" sites: true = the caller
/// should take its own failure path (use with the `fail` action).
#define TAP_FAULT_FAIL(site) (::tap::util::fault_fail(site))
