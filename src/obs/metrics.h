// tap::obs — the unified observability layer every subsystem reports
// through (ISSUE 3). Two halves:
//
//   * MetricsRegistry (this header): named counters / gauges /
//     fixed-bucket histograms. Registration (name -> handle) takes a
//     mutex once; after that every update is a relaxed atomic on the
//     handle — the fast path is lock-free and allocation-free, safe to
//     leave compiled into production hot paths.
//   * TraceSession (obs/trace.h): scoped spans exported as Chrome
//     trace-event JSON, sharing one schema with sim::Trace.
//
// Metric names are hierarchical, dot-separated, lowercase, with the unit
// as the last suffix where one applies:
//
//   planner.pass.prune_ms       histogram, wall ms of one Prune pass
//   planner.family.candidates   counter, candidate plans enumerated
//   planner.family.nodes_routed counter, nodes the family searches routed
//   planner.family.dp_steps     counter, frontier-state steps of the
//                               family DPs (FrontierDpPolicy)
//   planner.family.band_candidates  counter, candidates the DPs' winner
//                               step scored exactly
//   planner.refine.probes       counter, GlobalRefine revert probes
//   planner.refine.skipped_probes  counter, probes whose revert was a no-op
//   planner.refine.nodes_routed counter, V per full-graph route the
//                               GlobalRefine pass ran (skipped probes
//                               route nothing)
//   cache.mem.hits              counter, PlanCache memory-tier hits
//   service.coalesced           counter, single-flight joins
//   pool.queue_depth            gauge, submit() tasks waiting
//   pool.task_wait_ms           histogram, submit() queue latency
//
// Labels (ISSUE 9): a name may carry Prometheus labels after a '|' —
// "net.http.request_ms|route=plan" or "...|route=plan,shard=0". The
// registry treats the whole string as the metric identity (each label
// set is its own lock-free handle, registered once, cached by the call
// site), and dump_prometheus() splits at the '|' to emit
// tap_net_http_request_ms_bucket{route="plan",le="..."} with one
// `# TYPE` line per family. dump_json() keys keep the full spelling.
// Keep label sets small and closed (routes, deadline classes) —
// cardinality is a registration mutex entry per combination.
//
// The process-wide registry is obs::registry(); subsystems cache handle
// pointers (handles live as long as the registry, which is never
// destroyed before exit). Tests instantiate their own MetricsRegistry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tap::obs {

/// Monotonically increasing event count. All methods are lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value (queue depths, sizes). add() supports
/// up/down adjustment from concurrent writers; both paths are lock-free
/// (add is a CAS loop on the double's bit pattern).
class Gauge {
 public:
  void set(double v) { bits_.store(to_bits(v), std::memory_order_relaxed); }
  void add(double d) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, to_bits(from_bits(cur) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return from_bits(bits_.load(std::memory_order_relaxed));
  }
  void reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  static std::uint64_t to_bits(double v);
  static double from_bits(std::uint64_t b);

  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in
/// ascending order, plus an implicit +inf overflow bucket. observe() is
/// lock-free: one bucket fetch_add, one count fetch_add, one CAS loop for
/// the running sum. Bucket boundaries are fixed at registration so
/// concurrent observers never reshape anything.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Observations in bucket `i` (i == bounds().size() is the overflow
  /// bucket).
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

  /// Default wall-time buckets, milliseconds: 0.01 .. 10'000 in decade
  /// steps of 1/2.5/5 — covers a disabled-span nanosecond up to a cold
  /// mesh sweep.
  static std::vector<double> default_ms_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Name -> handle registry. Handles are stable for the registry's
/// lifetime; re-registering a name returns the existing handle (so every
/// call site may independently say registry().counter("cache.mem.hits")).
/// A name registered as one kind and requested as another throws.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  /// `bounds` applies only when the name is first registered.
  Histogram* histogram(std::string_view name, std::vector<double> bounds =
                                                  Histogram::default_ms_bounds());

  /// Machine-readable snapshot of every metric, sorted by name:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:
  ///    {"count":N,"sum":S,"buckets":[{"le":B,"count":N},...]}}}
  std::string dump_json() const;

  /// Prometheus text exposition of the same snapshot: every metric gets a
  /// `# TYPE` line; histograms expose cumulative `_bucket{le="..."}`
  /// series (including the `+Inf` bucket) plus `_sum` and `_count`. Names
  /// are prefixed "tap_" and sanitized (every non-alphanumeric character,
  /// notably the hierarchical '.', becomes '_').
  std::string dump_prometheus() const;

  /// Registered histogram names, sorted (for consumers — the report's
  /// latency section — that iterate without registering anything).
  std::vector<std::string> histogram_names() const;

  /// Zeroes every value (handles stay valid). For tests and for benches
  /// isolating one phase.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry every subsystem reports into.
MetricsRegistry& registry();

/// dump_json() of the process-wide registry — what `tap_cli --stats` and
/// the bench JSON emitter write.
std::string dump_json();

/// dump_prometheus() of the process-wide registry.
std::string dump_prometheus();

/// Prometheus-style quantile estimate (q in [0, 1]) from a histogram's
/// fixed buckets: linear interpolation inside the bucket holding the q-th
/// observation, assuming uniform spread within the bucket (the first
/// bucket interpolates from 0, the +inf overflow bucket clamps to the
/// largest finite bound). Returns 0 for an empty histogram.
double histogram_quantile(const Histogram& h, double q);

}  // namespace tap::obs
