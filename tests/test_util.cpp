#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <cstdlib>
#include <fstream>

#include "bench/bench_common.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace tap::util {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(json_escape("\xc3\xa9"), "\xc3\xa9");
}

TEST(JsonEscape, DumpedStringsRoundTripThroughTheParser) {
  const std::string nasty = "quote \" slash \\ nl \n cr \r tab \t ctl \x02";
  JsonValue v = JsonValue::object();
  v.set(nasty, JsonValue::string(nasty));
  const JsonValue parsed = JsonValue::parse(v.dump());
  ASSERT_EQ(parsed.members().size(), 1u);
  EXPECT_EQ(parsed.members()[0].first, nasty);
  EXPECT_EQ(parsed.members()[0].second.as_string(), nasty);
}

TEST(JsonValue, EveryDumpedNumberRoundTripsThroughTheParser) {
  // dump() spells infinities inf / -inf; parse() must read them back.
  const double inf = std::numeric_limits<double>::infinity();
  for (double d : {inf, -inf, 0.1, 1.0 / 3.0, 6.02214076e23, 5e-324}) {
    JsonValue v = JsonValue::array();
    v.push_back(JsonValue::number(d));
    const std::string text = v.dump();
    EXPECT_EQ(JsonValue::parse(text).items()[0].as_number(), d) << text;
  }
  EXPECT_EQ(JsonValue::number(inf).dump(), "inf");
  EXPECT_EQ(JsonValue::parse("-inf").as_number(), -inf);
  EXPECT_THROW(JsonValue::parse("in"), CheckError);
  EXPECT_THROW(JsonValue::parse("infinity"), CheckError);
}

TEST(JsonValue, AsIntIsStrict) {
  EXPECT_EQ(JsonValue::parse("42").as_int(), 42);
  EXPECT_EQ(JsonValue::parse("-9007199254740992").as_int(),
            -9007199254740992LL);
  const char* const kNotInts[] = {
      "2.5", "1e300", "-1e300", "inf", "-inf", "9007199254740994", "\"7\"",
  };
  for (const char* text : kNotInts)
    EXPECT_THROW(JsonValue::parse(text).as_int(), CheckError) << text;
}

TEST(BenchReporter, RecordSurvivesHostileNotesAndParses) {
  const std::string dir = ::testing::TempDir();
  setenv("TAP_BENCH_JSON", dir.c_str(), 1);
  bench::BenchReporter reporter("escape_check");
  reporter.add("speedup_x", 2.5);
  reporter.note("model \"quoted\"", "line1\nline2\\end");
  const std::string path = reporter.write();
  unsetenv("TAP_BENCH_JSON");
  ASSERT_FALSE(path.empty());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The quote/newline in the note must not corrupt the document.
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.at("bench").as_string(), "escape_check");
  EXPECT_EQ(doc.at("figures").at("speedup_x").as_number(), 2.5);
  EXPECT_EQ(doc.at("notes").at("model \"quoted\"").as_string(),
            "line1\nline2\\end");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    EXPECT_NE(va, c.next_u64());  // astronomically unlikely to collide
  }
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  // Every residue hit eventually (sanity, not uniformity).
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double mean = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    mean += v;
  }
  EXPECT_NEAR(mean / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng rng(17);
  double mean = 0.0, var = 0.0;
  const int n = 20000;
  std::vector<double> vals(n);
  for (int i = 0; i < n; ++i) {
    vals[static_cast<std::size_t>(i)] = rng.normal();
    mean += vals[static_cast<std::size_t>(i)];
  }
  mean /= n;
  for (double v : vals) var += (v - mean) * (v - mean);
  var /= n;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, ReseedResetsStream) {
  Rng rng(5);
  std::uint64_t first = rng.next_u64();
  rng.next_u64();
  rng.reseed(5);
  EXPECT_EQ(rng.next_u64(), first);
}

TEST(Hash, StableAndSensitive) {
  EXPECT_EQ(hash_str("abc"), hash_str("abc"));
  EXPECT_NE(hash_str("abc"), hash_str("abd"));
  EXPECT_NE(hash_str(""), hash_str("a"));
  EXPECT_NE(hash_u64(1), hash_u64(2));
}

TEST(Hash, CombineIsOrderDependent) {
  EXPECT_NE(hash_combine(hash_str("a"), hash_str("b")),
            hash_combine(hash_str("b"), hash_str("a")));
}

TEST(Hash, UnorderedMixIsCommutative) {
  std::uint64_t ab =
      hash_mix_unordered(hash_mix_unordered(kFnvOffset, hash_str("a")),
                         hash_str("b"));
  std::uint64_t ba =
      hash_mix_unordered(hash_mix_unordered(kFnvOffset, hash_str("b")),
                         hash_str("a"));
  EXPECT_EQ(ab, ba);
  EXPECT_NE(ab, kFnvOffset);
}

TEST(Hash128, DefaultIsStableNonZero) {
  Hash128 a, b;
  EXPECT_EQ(a, b);
  EXPECT_NE(a.hi, 0u);
  EXPECT_NE(a.lo, 0u);
  EXPECT_NE(hash128_combine(a, 1), a);
}

TEST(Hash128, Splitmix64Sanity) {
  // Reference value: first output of the splitmix64 stream seeded with 0
  // (the increment is folded into the finalizer).
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_NE(splitmix64(1), splitmix64(2));
  EXPECT_EQ(splitmix64(42), splitmix64(42));
}

TEST(Hash128, CombineIsSensitiveAndOrderDependent) {
  Hash128 seed;
  Hash128 ab = hash128_combine(hash128_combine(seed, 1), 2);
  Hash128 ba = hash128_combine(hash128_combine(seed, 2), 1);
  EXPECT_NE(ab, ba);
  EXPECT_NE(hash128_combine(seed, 1), hash128_combine(seed, 2));
  // Both lanes move, not just one.
  EXPECT_NE(ab.hi, ba.hi);
  EXPECT_NE(ab.lo, ba.lo);
}

TEST(Hash128, BytesLengthClosed) {
  // Distinct lengths of the same prefix must differ ("ab" vs "ab\0").
  const char buf[3] = {'a', 'b', '\0'};
  EXPECT_NE(hash128_bytes(buf, 2), hash128_bytes(buf, 3));
  EXPECT_EQ(hash128_str("ab"), hash128_bytes(buf, 2));
  EXPECT_NE(hash128_str(""), hash128_str("a"));
  // Word-boundary sensitivity: 8 vs 9 bytes exercises the tail path.
  std::string eight(8, 'x'), nine(9, 'x');
  EXPECT_NE(hash128_str(eight), hash128_str(nine));
}

TEST(Hash128, DigestHasNoObviousCollisions) {
  // Sequential integers — the adversarially boring input — must spread.
  std::set<std::uint64_t> digests;
  Hash128 seed;
  for (std::uint64_t i = 0; i < 10000; ++i)
    digests.insert(hash128_combine(seed, i).digest());
  EXPECT_EQ(digests.size(), 10000u);
}

TEST(Hash128, OrderingIsTotal) {
  Hash128 a = hash128_combine({}, 1);
  Hash128 b = hash128_combine({}, 2);
  EXPECT_TRUE((a < b) != (b < a));
  EXPECT_FALSE(a < a);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.elapsed_seconds(), 0.0);
  EXPECT_GE(sw.elapsed_millis(), sw.elapsed_seconds() * 1e3 * 0.99);
  double before = sw.elapsed_seconds();
  sw.restart();
  EXPECT_LE(sw.elapsed_seconds(), before + 1.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "100000"});
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|--"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, EveryLineHasItsBarsAtTheSameColumns) {
  Table t({"model", "ms", "x"});
  t.add_row({"t5", "1.25", "wide cell"});
  t.add_row({"resnet50", "10", ""});
  std::ostringstream os;
  t.print(os);
  std::istringstream lines(os.str());
  std::string line;
  std::vector<std::vector<std::size_t>> bars;
  while (std::getline(lines, line)) {
    bars.emplace_back();
    for (std::size_t i = 0; i < line.size(); ++i)
      if (line[i] == '|') bars.back().push_back(i);
  }
  ASSERT_EQ(bars.size(), 4u);  // header, separator, two rows
  EXPECT_EQ(bars[0].size(), 4u);
  for (const std::vector<std::size_t>& b : bars) EXPECT_EQ(b, bars[0]);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Fmt, FormatsDoubles) {
  EXPECT_EQ(fmt("%.2f", 3.14159), "3.14");
  EXPECT_EQ(fmt("%.0fx", 12.7), "13x");
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  // threads=1 must be a plain sequential loop on the calling thread.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DeterministicMergeInIndexOrder) {
  // The planner's contract: one output slot per index, merged after the
  // join — the result never depends on scheduling.
  ThreadPool pool(8);
  std::vector<int> out(257, 0);
  pool.parallel_for(out.size(),
                    [&](std::size_t i) { out[i] = static_cast<int>(i) * 3; });
  int sum = std::accumulate(out.begin(), out.end(), 0);
  EXPECT_EQ(sum, 3 * 256 * 257 / 2);
}

TEST(ThreadPool, RethrowsLowestIndexFailure) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 7 || i == 63)
        throw std::runtime_error("boom " + std::to_string(i));
      ++completed;
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");  // lowest index wins, not first-done
  }
  // Every non-throwing index still ran.
  EXPECT_EQ(completed.load(), 98);
  // The pool survives the failure and stays usable.
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, SequentialRethrowMatchesParallelContract) {
  // Regression: the threads=1 degenerate case used to abort the loop at
  // the first throw, silently dropping the remaining indices. It must run
  // them all and rethrow the lowest-index failure, like the parallel path.
  ThreadPool pool(1);
  int completed = 0;
  try {
    pool.parallel_for(20, [&](std::size_t i) {
      if (i == 3 || i == 17)
        throw std::runtime_error("boom " + std::to_string(i));
      ++completed;
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  EXPECT_EQ(completed, 18);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(4);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
  // Many tasks, all resolve with their own value.
  std::vector<std::future<std::size_t>> futs;
  for (std::size_t i = 0; i < 64; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptionToWaiter) {
  // Regression: a throwing task must surface on future::get(), never be
  // swallowed by the worker loop. The message is read once the workers
  // are joined: it is a refcounted string whose count libstdc++ updates
  // outside TSan's view, so a read while a worker may still be dropping
  // its reference reports a race.
  std::exception_ptr error;
  int after = 0;
  {
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    try {
      fut.get();
    } catch (...) {
      error = std::current_exception();
    }
    // The pool survives and still runs work.
    after = pool.submit([] { return 1; }).get();
  }
  ASSERT_TRUE(error) << "expected rethrow";
  try {
    std::rethrow_exception(error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  EXPECT_EQ(after, 1);
}

TEST(ThreadPool, SubmitInlineWhenSingleThreaded) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  auto fut = pool.submit([caller] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 7;
  });
  // Inline execution: ready before get().
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(fut.get(), 7);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("x"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitAndParallelForShareWorkers) {
  ThreadPool pool(4);
  auto fut = pool.submit([] { return std::string("side task"); });
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(fut.get(), "side task");
}

TEST(ThreadPool, ResolvePicksHardwareConcurrencyForAuto) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_GE(ThreadPool::resolve(-3), 1);
  EXPECT_EQ(ThreadPool::resolve(5), 5);
}

TEST(ThreadPool, SubmitAfterShutdownThrowsTypedError) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 2; }), PoolStoppedError);
  // Idempotent: a second shutdown (and the destructor after it) is a no-op.
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 3; }), PoolStoppedError);
}

TEST(ThreadPool, SubmitAfterShutdownThrowsInlineToo) {
  // The degenerate no-worker pool takes a different submit path; it must
  // honor the same contract instead of silently running the task.
  ThreadPool pool(1);
  pool.shutdown();
  bool ran = false;
  EXPECT_THROW(pool.submit([&] { ran = true; }), PoolStoppedError);
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  // Every future handed out before shutdown() must resolve: queued tasks
  // are drained, not dropped. A slow head task keeps the rest queued so
  // the drain path is actually exercised.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
    }));
  }
  pool.shutdown();
  for (auto& f : futs) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    f.get();  // no exception
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolStress, DestructorStopAndDrainHammer) {
  // Teardown soak (runs under TSan in CI): construct a pool, flood it
  // with tasks, and destroy it while work is still queued — repeatedly.
  // The destructor's stop-and-drain must resolve every future with no
  // race between the workers, the queue, and the joining thread.
  for (int round = 0; round < 50; ++round) {
    std::vector<std::future<int>> futs;
    std::atomic<int> ran{0};
    {
      ThreadPool pool(4);
      for (int i = 0; i < 64; ++i) {
        futs.push_back(pool.submit([&ran, i] {
          ++ran;
          return i;
        }));
      }
      // Destructor fires here with most tasks still queued.
    }
    EXPECT_EQ(ran.load(), 64);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(futs[static_cast<std::size_t>(i)].wait_for(
                    std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i);
    }
  }
}

}  // namespace
}  // namespace tap::util
