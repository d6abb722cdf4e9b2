// PlanCache — the two-tier memoization store behind the PlannerService.
//
//   tier 1: an in-memory LRU of exactly `capacity` PlanRecords behind one
//           mutex, which guards the entries, the log index and the stats
//           and is held for map operations only, never across disk I/O.
//   tier 2: an optional append-only log, `plans.log` under `disk_dir`.
//           Each record is a header line "<key hex> <payload bytes>\n",
//           the payload, then '\n'. The payload is the key's /plan
//           response bytes (service/wire.h), one '\n', then
//           {"search_seconds":..}; it reads back through
//           plan_response_from_json, which checks the response version
//           BEFORE the body is interpreted: records written by older code
//           (or damaged on disk, or holding another key's document) are
//           rejected and counted, never deserialized into garbage.
//
// The log is held open. Opening the cache scans its headers once into an
// index of key -> (offset, length); when a key has several records the
// last one wins. A miss is an index lookup with no file-system call, a
// disk hit is one pread, and an insert is one pwrite at the end of the
// log, serialized by its own lock and published to the index only once
// the write has returned complete, so a reader never sees a key whose
// bytes are not all written. A disk hit is promoted into the memory tier;
// an insert writes both tiers. A renamed structural twin (same PlanKey)
// hits memory but not disk: a record names GraphNodes.
//
// One writer per directory: the cache takes flock(LOCK_EX|LOCK_NB) on the
// log, and a second cache over the same directory (in this process or
// another) runs memory-only and counts the fallback (`lock_fallbacks`).
// Caches opened one after another see each other's records. Files of the
// old one-file-per-key layout (*.plan.json, *.tmp, *.quarantine) are
// ignored and left in place.
//
// Robustness: transient disk I/O failures (fault sites cache.disk.read,
// before the pread, and cache.disk.write, before the append) are retried
// with linear backoff and counted (`cache.retry`). A record that parses
// as garbage is dropped from the index (`cache.quarantined`), so it is
// never re-parsed; its bytes stay in the log for post-mortem, and the
// re-search appends a record that supersedes it. A torn tail (a header or
// payload shorter than declared, or a missing final '\n', as a crashed
// append leaves) is cut off at open (`torn_tails`), so the next append
// starts clean. Every degradation leaves the cache fully usable: the
// worst case is a re-search.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/tap.h"
#include "service/fingerprint.h"

namespace tap::service {

/// What a lookup returns: everything a hit needs to equal the cold search
/// it stands for. A hit runs no passes, so it carries no pass timings.
struct PlanRecord {
  sharding::ShardingPlan plan;
  cost::PlanCost cost;
  core::SearchStats stats;
  /// Wall time of the cold search that produced the plan.
  double search_seconds = 0.0;
};

/// The disk-tier payload for `result`, planned under `key`: its /plan
/// response bytes, one '\n', then {"search_seconds":..}.
std::string disk_file_json(const ir::TapGraph& tg, const PlanKey& key,
                           const core::TapResult& result);

/// Reads a disk-tier payload against `tg`: the response through
/// plan_response_from_json, which must name `key` and be complete, then
/// exactly {"search_seconds":..}. Throws CheckError otherwise.
PlanRecord disk_file_from_json(const ir::TapGraph& tg, const PlanKey& key,
                               std::string_view text);

/// One record of the disk tier's log: the header line
/// "<key hex> <payload bytes>\n", `payload`, then '\n'.
std::string plan_log_record(const PlanKey& key, std::string_view payload);

struct PlanCacheOptions {
  /// In-memory entries; the least recently used is evicted beyond this.
  std::size_t capacity = 256;
  /// Directory of the disk tier; empty = memory-only.
  std::string disk_dir;
  /// Extra attempts after a transient disk I/O failure (so io_retries + 1
  /// attempts total). Retries apply ONLY to I/O errors — an unlogged key
  /// is a miss and a corrupt record is quarantined, neither is retried.
  int io_retries = 2;
  /// Backoff before retry k is k * retry_backoff_ms.
  double retry_backoff_ms = 1.0;
};

struct PlanCacheStats {
  std::uint64_t memory_hits = 0;
  std::uint64_t memory_misses = 0;  ///< both-tier lookups that missed tier 1
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;   ///< no record for the key
  std::uint64_t disk_rejects = 0;  ///< corrupt or version-mismatched record
  std::uint64_t disk_writes = 0;
  std::uint64_t retries = 0;      ///< disk I/O retry attempts
  std::uint64_t quarantined = 0;  ///< bad records dropped from the index
  std::uint64_t torn_tails = 0;   ///< torn log tails cut off at open
  /// 1 when another cache held the log, so this one runs memory-only.
  std::uint64_t lock_fallbacks = 0;
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions opts = {});
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Which tier answered a lookup (request-telemetry breadcrumb; the
  /// aggregate counts stay in PlanCacheStats).
  enum class Tier : std::uint8_t { kMiss, kMemory, kDisk };

  /// Memory tier first, then disk. `tg` validates a disk payload against
  /// the requesting graph. A disk hit is promoted to memory. `tier`
  /// (optional) reports which tier answered.
  std::optional<PlanRecord> lookup(const PlanKey& key, const ir::TapGraph& tg,
                                   Tier* tier = nullptr);
  /// The memory tier alone: a hit is counted and touched as lookup()
  /// counts and touches it; a miss is not counted (the caller re-checks
  /// after a lookup() that already counted it).
  std::optional<PlanRecord> memory_lookup(const PlanKey& key);

  /// Inserts `result`'s record into the memory tier and (when the log is
  /// open) appends it to the log. `result` must be complete.
  void insert(const PlanKey& key, const core::TapResult& result,
              const ir::TapGraph& tg);

  PlanCacheStats stats() const;

  /// The disk tier's log, or "" when no disk_dir is configured.
  std::string log_path() const;

  const PlanCacheOptions& options() const { return opts_; }

 private:
  using Entry = std::pair<PlanKey, PlanRecord>;
  /// Where a record's payload sits in the log.
  struct Extent {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };
  using LogIndex = std::unordered_map<PlanKey, Extent, PlanKeyHash>;

  /// Opens and locks the log, indexes its records and cuts a torn tail;
  /// leaves the cache memory-only when it cannot.
  void open_log();

  /// Counts one retry (stats + cache.retry metric) and sleeps the linear
  /// backoff for `attempt`.
  void count_retry(int attempt);
  void memory_insert(const PlanKey& key, PlanRecord record);
  std::optional<PlanRecord> disk_lookup(const PlanKey& key,
                                        const ir::TapGraph& tg);
  void disk_insert(const PlanKey& key, const core::TapResult& result,
                   const ir::TapGraph& tg);

  PlanCacheOptions opts_;

  mutable std::mutex mu_;  ///< guards lru_, index_, log_index_ and stats_
  std::list<Entry> lru_;   ///< front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index_;
  LogIndex log_index_;  ///< the last complete record of each logged key
  PlanCacheStats stats_;

  int log_fd_ = -1;          ///< the locked log; -1 = memory-only
  std::mutex append_mu_;     ///< serializes appends; guards log_end_
  std::uint64_t log_end_ = 0;  ///< where the next record starts
};

}  // namespace tap::service
