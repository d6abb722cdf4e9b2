// PlanCache — the two-tier memoization store behind the PlannerService.
//
//   tier 1: an in-memory LRU of exactly `capacity` PlanRecords behind one
//           mutex, which guards the entries and the stats and is held
//           for map operations only, never across disk I/O.
//   tier 2: an optional on-disk store (one file per key under `disk_dir`,
//           named by the key's version-prefixed hex). A file holds the
//           key's /plan response bytes (service/wire.h), one '\n', then
//           {"search_seconds":..}, and reads back through
//           plan_response_from_json, which checks the response version
//           BEFORE the body is interpreted: files written by older code
//           (or corrupted on disk, or holding another key's document) are
//           rejected and counted, never deserialized into garbage.
//
// A disk hit is promoted into the memory tier; an insert writes both
// tiers (the disk write is atomic: temp file + rename, so a crashed or
// concurrent writer can never leave a torn file behind). A renamed
// structural twin (same PlanKey) hits memory but not disk: a file names
// GraphNodes.
//
// Robustness (ISSUE 5): transient disk I/O failures (fault sites
// cache.disk.read / cache.disk.write / cache.disk.rename) are retried
// with linear backoff and counted (`cache.retry`); a file that parses as
// garbage is renamed to `*.quarantine` once (`cache.quarantined`) so it
// is never re-parsed; stale `*.tmp` files from a crashed writer are swept
// at construction. Every degradation leaves the cache fully usable — the
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

/// The disk-tier file for `result`, planned under `key`: its /plan
/// response bytes, one '\n', then {"search_seconds":..}.
std::string disk_file_json(const ir::TapGraph& tg, const PlanKey& key,
                           const core::TapResult& result);

/// Reads a disk-tier file against `tg`: the response through
/// plan_response_from_json, which must name `key` and be complete, then
/// exactly {"search_seconds":..}. Throws CheckError otherwise.
PlanRecord disk_file_from_json(const ir::TapGraph& tg, const PlanKey& key,
                               std::string_view text);

struct PlanCacheOptions {
  /// In-memory entries; the least recently used is evicted beyond this.
  std::size_t capacity = 256;
  /// Directory of the disk tier; empty = memory-only.
  std::string disk_dir;
  /// Extra attempts after a transient disk I/O failure (so io_retries + 1
  /// attempts total). Retries apply ONLY to I/O errors — an absent file is
  /// a miss and a corrupt file is quarantined, neither is retried.
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
  std::uint64_t disk_misses = 0;   ///< no file for the key
  std::uint64_t disk_rejects = 0;  ///< corrupt or version-mismatched file
  std::uint64_t disk_writes = 0;
  std::uint64_t retries = 0;      ///< disk I/O retry attempts
  std::uint64_t quarantined = 0;  ///< bad files renamed to *.quarantine
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions opts = {});

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

  /// Inserts `result`'s record into the memory tier and (when configured)
  /// writes its disk file atomically. `result` must be complete.
  void insert(const PlanKey& key, const core::TapResult& result,
              const ir::TapGraph& tg);

  PlanCacheStats stats() const;

  /// Disk-tier file of `key`, or "" when the cache is memory-only.
  std::string disk_path(const PlanKey& key) const;

  const PlanCacheOptions& options() const { return opts_; }

 private:
  using Entry = std::pair<PlanKey, PlanRecord>;

  /// Counts one retry (stats + cache.retry metric) and sleeps the linear
  /// backoff for `attempt`.
  void count_retry(int attempt);
  void memory_insert(const PlanKey& key, PlanRecord record);
  std::optional<PlanRecord> disk_lookup(const PlanKey& key,
                                        const ir::TapGraph& tg);
  void disk_insert(const PlanKey& key, const core::TapResult& result,
                   const ir::TapGraph& tg);

  PlanCacheOptions opts_;

  mutable std::mutex mu_;  ///< guards lru_, index_ and stats_
  std::list<Entry> lru_;   ///< front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index_;
  PlanCacheStats stats_;
};

}  // namespace tap::service
