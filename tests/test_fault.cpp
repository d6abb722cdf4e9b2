// util::FaultInjector tests — the harness ISSUE 5's robustness suite
// stands on. The properties that matter: a (spec, seed) pair replays the
// exact same injection sequence per site (so fault tests can predict
// counter values instead of asserting "something failed"), malformed
// specs are rejected loudly, and the disabled path is inert.
#include "util/fault.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"

namespace tap::util {
namespace {

TEST(FaultInjector, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultInjector("no-equals-sign"), CheckError);
  EXPECT_THROW(FaultInjector("=throw"), CheckError);          // empty site
  EXPECT_THROW(FaultInjector("x.y=explode"), CheckError);     // unknown action
  EXPECT_THROW(FaultInjector("x.y=delay"), CheckError);       // delay needs MS
  EXPECT_THROW(FaultInjector("x.y=throw:1.5"), CheckError);   // P > 1
  EXPECT_THROW(FaultInjector("x.y=throw:-0.1"), CheckError);  // P < 0
  EXPECT_THROW(FaultInjector("x.y=throw:abc"), CheckError);   // not a number
  EXPECT_THROW(FaultInjector("x.y=fail:0.5:junk"), CheckError);
}

TEST(FaultInjector, ParsesSpecGrammar) {
  // Trailing comma tolerated; P defaults to 1; duplicate site last-wins.
  FaultInjector fi("a.b=fail,c.d=delay:5:0.25,a.b=fail:0.0,");
  EXPECT_FALSE(fi.hit("a.b"));  // last-wins: P = 0 never injects
  EXPECT_EQ(fi.hits("a.b"), 1u);
  EXPECT_EQ(fi.injected("a.b"), 0u);
  // Unconfigured sites are free and uncounted.
  EXPECT_FALSE(fi.hit("never.configured"));
  EXPECT_EQ(fi.hits("never.configured"), 0u);
}

TEST(FaultInjector, ThrowActionCarriesTheSite) {
  FaultInjector fi("cache.disk.read=throw");
  try {
    fi.hit("cache.disk.read");
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.site(), "cache.disk.read");
  }
  EXPECT_EQ(fi.injected("cache.disk.read"), 1u);
}

TEST(FaultInjector, ProbabilityEndpointsAreExact) {
  FaultInjector always("s=fail:1", 42);
  FaultInjector never("s=fail:0", 42);
  for (int k = 0; k < 100; ++k) {
    EXPECT_TRUE(always.hit("s"));
    EXPECT_FALSE(never.hit("s"));
  }
  EXPECT_EQ(always.injected("s"), 100u);
  EXPECT_EQ(never.injected("s"), 0u);
}

TEST(FaultInjector, SeededDecisionsReplayExactly) {
  // The k-th hit of a site is a pure function of (seed, site, k): two
  // injectors with the same spec + seed produce the same boolean sequence,
  // hit for hit. This is what lets the robustness tests predict
  // cache.retry / cache.quarantined exactly.
  const std::string spec = "a=fail:0.5,b=fail:0.3";
  FaultInjector fi1(spec, 7);
  FaultInjector fi2(spec, 7);
  std::vector<bool> seq1, seq2;
  for (int k = 0; k < 200; ++k) {
    seq1.push_back(fi1.hit("a"));
    seq1.push_back(fi1.hit("b"));
    seq2.push_back(fi2.hit("a"));
    seq2.push_back(fi2.hit("b"));
  }
  EXPECT_EQ(seq1, seq2);
  EXPECT_EQ(fi1.injected("a"), fi2.injected("a"));
  EXPECT_EQ(fi1.injected("b"), fi2.injected("b"));
  // A P = 0.5 site injects a plausible fraction — sanity, not statistics.
  EXPECT_GT(fi1.injected("a"), 50u);
  EXPECT_LT(fi1.injected("a"), 150u);

  // A different seed draws a different sequence (400 coin flips colliding
  // would mean the seed is ignored).
  FaultInjector fi3(spec, 8);
  std::vector<bool> seq3;
  for (int k = 0; k < 200; ++k) {
    seq3.push_back(fi3.hit("a"));
    seq3.push_back(fi3.hit("b"));
  }
  EXPECT_NE(seq1, seq3);
}

TEST(FaultInjector, DecisionsAreKeyedPerSite) {
  // Sites draw independent streams: the same seed must not make "a" and
  // "b" inject in lockstep.
  FaultInjector fi("a=fail:0.5,b=fail:0.5", 3);
  std::vector<bool> a, b;
  for (int k = 0; k < 200; ++k) {
    a.push_back(fi.hit("a"));
    b.push_back(fi.hit("b"));
  }
  EXPECT_NE(a, b);
}

TEST(FaultInjector, ScopedInstallAndRestore) {
  // Whatever TAP_FAULT may have installed at process start, this test is
  // about the stacking discipline — start from a shielded baseline.
  ScopedFaultInjector shield(nullptr);
  EXPECT_EQ(fault_injector(), nullptr);
  {
    ScopedFaultInjector scoped("x=fail:1");
    EXPECT_EQ(fault_injector(), &scoped.injector());
    EXPECT_TRUE(TAP_FAULT_FAIL("x"));
    {
      // The nullptr scope shields a region (how unit tests opt out of an
      // environment-installed injector).
      ScopedFaultInjector off(nullptr);
      EXPECT_EQ(fault_injector(), nullptr);
      EXPECT_FALSE(TAP_FAULT_FAIL("x"));
    }
    EXPECT_EQ(fault_injector(), &scoped.injector());
  }
  EXPECT_EQ(fault_injector(), nullptr);
}

TEST(FaultInjector, MacrosAreInertWithoutAnInjector) {
  ScopedFaultInjector off(nullptr);  // shield from TAP_FAULT in the env
  TAP_FAULT_POINT("anything.at.all");
  EXPECT_FALSE(TAP_FAULT_FAIL("anything.at.all"));
}

TEST(FaultInjector, DelayActionDoesNotAlterControlFlow) {
  FaultInjector fi("s=delay:1");
  EXPECT_FALSE(fi.hit("s"));  // sleeps, returns false, never throws
  EXPECT_EQ(fi.injected("s"), 1u);
}

TEST(FaultInjector, UninstallWaitsForInFlightHits) {
  // Four threads hit a delay site (each hit sleeps inside hit()) while the
  // injector is uninstalled and destroyed. Uninstall must return only
  // once no thread is inside or entering its hit(): the hit count is then
  // final, and destroying the injector races with nothing (ASan/TSan
  // check the latter).
  ScopedFaultInjector shield(nullptr);
  auto fi = std::make_unique<FaultInjector>("s=delay:1");
  std::atomic<bool> stop{false};
  std::atomic<int> returned{0};
  std::vector<std::thread> threads;
  install_fault_injector(fi.get());
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        TAP_FAULT_POINT("s");
        returned.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (returned.load() < 16) std::this_thread::yield();
  EXPECT_EQ(install_fault_injector(nullptr), fi.get());
  const std::uint64_t hits = fi->hits("s");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fi->hits("s"), hits);  // nobody entered hit() after uninstall
  fi.reset();
  const int before = returned.load();
  while (returned.load() < before + 16) std::this_thread::yield();
  stop = true;
  for (std::thread& t : threads) t.join();
  EXPECT_GE(hits, 16u);
}

}  // namespace
}  // namespace tap::util
