// tap::obs — the per-shard flight recorder (ISSUE 9): an always-on,
// fixed-size ring of per-request summaries, in the Google "flight
// recorder" idiom — when a request goes wrong in production, the last K
// requests are already in memory, with trace ids, provenance, and
// timing, at a cost the hot path cannot feel.
//
// Cost model. record() on the uncontended path is one relaxed load
// (enabled?), one relaxed fetch_add (claim a slot), one uncontended
// atomic exchange pair (the slot guard), and a ~300-byte POD copy — no
// locks, no allocation, no syscalls. The ring is lossy BY DESIGN: if a
// writer ever lands on a slot another writer or reader holds (requires
// `capacity` in-flight requests, or a racing snapshot), the record is
// dropped and counted, never blocked on. snapshot() is the same
// try-acquire per slot, so readers never stall writers either.
//
// Memory bound: capacity * sizeof(FlightRecord) — ~512 slots * ~330 B
// ≈ 170 KiB per shard, fixed at construction, independent of traffic.
//
// Slow-request capture: every record carries space for up to kMaxSpans
// pipeline pass timings; the handler keeps them only for requests over
// the recorder's slow_ms threshold, so `/debug/requests` shows WHERE a
// slow plan spent its time without retaining span lists for the fast
// majority.
//
// FlightRecord strings are fixed-size char arrays (truncating copies)
// so the record is trivially copyable and the ring never owns heap
// memory; callers pass static-storage or short identifier strings.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tap::obs {

/// One request summary. POD: safe to copy in and out of ring slots.
struct FlightRecord {
  static constexpr std::size_t kMaxSpans = 8;

  std::uint64_t seq = 0;  ///< 1-based admission index (assigned by record())
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t key_digest = 0;  ///< PlanKey digest; 0 for non-plan routes
  std::uint16_t status = 0;      ///< HTTP status answered
  bool sampled = false;
  float queue_ms = 0.0f;   ///< wait before the search task ran
  float handle_ms = 0.0f;  ///< whole handler wall time
  float search_ms = 0.0f;  ///< planner search wall time (0 on cache hits)
  char route[16] = {};          ///< "plan", "explain", "metrics", ...
  char served[12] = {};         ///< "searched|memory|disk|coalesced|..."
  char provenance[12] = {};     ///< "complete|anytime|fallback"
  char deadline_class[12] = {};
  char reason[24] = {};  ///< shed/fallback/reject reason, "" when none

  struct Span {
    char name[20] = {};
    float ms = 0.0f;
  };
  std::uint8_t span_count = 0;  ///< > 0 only for slow-captured requests
  Span spans[kMaxSpans];
};

/// Truncating copy into a FlightRecord char-array field.
void set_record_field(char* dst, std::size_t cap, std::string_view value);

class FlightRecorder {
 public:
  /// `capacity` is rounded up to at least 2; `slow_ms` is the handler's
  /// span-retention threshold (surfaced via slow_ms() — the recorder
  /// itself stores whatever it is given).
  explicit FlightRecorder(std::size_t capacity = 512, double slow_ms = 250.0);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Admits one record (lock-free, lossy under pathological contention).
  /// Assigns rec.seq. No-op when disabled.
  void record(FlightRecord rec);

  /// The newest `last_n` admitted records, newest first. Skips slots a
  /// writer holds mid-copy (counted in dropped() only when written over).
  std::vector<FlightRecord> snapshot(std::size_t last_n) const;

  /// GET /debug/requests payload: {"capacity":..,"slow_ms":..,
  /// "total":..,"dropped":..,"requests":[newest first]}.
  std::string to_json(std::size_t last_n) const;

  /// Runtime kill switch: when disabled, record() is a single relaxed
  /// load. The bench's overhead gate compares enabled vs disabled.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records ever admitted (monotonic, includes overwritten ones).
  std::uint64_t total() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Records lost to slot contention (see class comment).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }
  double slow_ms() const { return slow_ms_; }

 private:
  struct Slot {
    /// Try-acquire guard: writers and readers exchange(true) and skip the
    /// slot on contention, so slot access is data-race-free without ever
    /// blocking.
    std::atomic<bool> busy{false};
    FlightRecord rec;
  };

  std::size_t capacity_;
  double slow_ms_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace tap::obs
