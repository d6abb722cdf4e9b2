#include "service/plan_cache.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/wire.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/json.h"

namespace tap::service {

namespace fs = std::filesystem;

namespace {

/// Global-registry mirrors of PlanCacheStats, shared by every PlanCache
/// in the process (the per-instance stats stay exact in stats_).
struct CacheMetrics {
  obs::Counter* mem_hits = obs::registry().counter("cache.mem.hits");
  obs::Counter* mem_misses = obs::registry().counter("cache.mem.misses");
  obs::Counter* insertions = obs::registry().counter("cache.mem.insertions");
  obs::Counter* evictions = obs::registry().counter("cache.mem.evictions");
  obs::Counter* disk_hits = obs::registry().counter("cache.disk.hits");
  obs::Counter* disk_misses = obs::registry().counter("cache.disk.misses");
  obs::Counter* disk_rejects = obs::registry().counter("cache.disk.rejects");
  obs::Counter* disk_writes = obs::registry().counter("cache.disk.writes");
  obs::Counter* retries = obs::registry().counter("cache.retry");
  obs::Counter* quarantined = obs::registry().counter("cache.quarantined");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

PlanRecord record_of(const core::TapResult& result) {
  return {result.best_plan,
          result.cost,
          {result.candidate_plans, result.valid_plans, result.nodes_visited,
           result.cost_queries},
          result.search_seconds};
}

}  // namespace

std::string disk_file_json(const ir::TapGraph& tg, const PlanKey& key,
                           const core::TapResult& result) {
  util::JsonValue seconds = util::JsonValue::object();
  seconds.set("search_seconds",
              util::JsonValue::number(result.search_seconds));
  return plan_response_json(tg, key, result) + '\n' + seconds.dump();
}

PlanRecord disk_file_from_json(const ir::TapGraph& tg, const PlanKey& key,
                               std::string_view text) {
  // The response is compact JSON, so the first '\n' ends it.
  const std::size_t eol = text.find('\n');
  TAP_CHECK(eol != std::string_view::npos)
      << "plan cache file: no search_seconds line";
  const PlanResponse response =
      plan_response_from_json(tg, text.substr(0, eol));
  TAP_CHECK(response.key == key.to_hex())
      << "plan cache file: holds key " << response.key << ", not "
      << key.to_hex();
  TAP_CHECK(response.result.provenance.complete())
      << "plan cache file: provenance is "
      << core::plan_source_name(response.result.provenance.source);
  const util::JsonValue line = util::JsonValue::parse(text.substr(eol + 1));
  const auto& members = line.members();
  TAP_CHECK(members.size() == 1 && members[0].first == "search_seconds")
      << "plan cache file: second line must be {\"search_seconds\":..}";
  PlanRecord record = record_of(response.result);
  record.search_seconds = members[0].second.as_number();
  return record;
}

PlanCache::PlanCache(PlanCacheOptions opts) : opts_(std::move(opts)) {
  TAP_CHECK_GE(opts_.capacity, 1u);
  TAP_CHECK_GE(opts_.io_retries, 0);
  TAP_CHECK_GE(opts_.retry_backoff_ms, 0.0);
  if (!opts_.disk_dir.empty()) {
    fs::create_directories(opts_.disk_dir);
    // Sweep partial temp files left by a crashed (or fault-killed) writer.
    // They were never renamed into place, so nothing ever read them; the
    // sweep just reclaims the space and keeps the directory clean.
    std::error_code ec;
    for (fs::directory_iterator it(opts_.disk_dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->path().extension() == ".tmp") {
        std::error_code rm;
        fs::remove(it->path(), rm);
      }
    }
  }
}

std::optional<PlanRecord> PlanCache::memory_lookup(const PlanKey& key) {
  std::optional<PlanRecord> hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    hit = it->second->second;
    ++stats_.memory_hits;
  }
  cache_metrics().mem_hits->add(1);
  if (obs::TraceSession* s = obs::active_session())
    s->instant("cache.mem.hit", "cache");
  return hit;
}

void PlanCache::memory_insert(const PlanKey& key, PlanRecord record) {
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(record);
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.emplace_front(key, std::move(record));
      index_.emplace(key, lru_.begin());
      while (lru_.size() > opts_.capacity) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evicted;
      }
    }
    ++stats_.insertions;
    stats_.evictions += evicted;
  }
  cache_metrics().insertions->add(1);
  cache_metrics().evictions->add(evicted);
}

std::string PlanCache::disk_path(const PlanKey& key) const {
  if (opts_.disk_dir.empty()) return "";
  return (fs::path(opts_.disk_dir) / (key.to_hex() + ".plan.json"))
      .string();
}

void PlanCache::count_retry(int attempt) {
  cache_metrics().retries->add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.retries;
  }
  if (opts_.retry_backoff_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        opts_.retry_backoff_ms * attempt));
  }
}

std::optional<PlanRecord> PlanCache::disk_lookup(const PlanKey& key,
                                                  const ir::TapGraph& tg) {
  const std::string path = disk_path(key);
  if (path.empty()) return std::nullopt;
  for (int attempt = 0; attempt <= opts_.io_retries; ++attempt) {
    if (attempt > 0) count_retry(attempt);
    try {
      TAP_FAULT_POINT("cache.disk.read");
      std::ifstream in(path);
      if (!in) {
        // Absent file is a plain miss, not an I/O failure — no retry.
        cache_metrics().disk_misses->add(1);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.disk_misses;
        return std::nullopt;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      PlanRecord record = disk_file_from_json(tg, key, buf.str());
      cache_metrics().disk_hits->add(1);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.disk_hits;
      return record;
    } catch (const util::FaultInjectedError&) {
      continue;  // transient I/O failure: retry with backoff
    } catch (const CheckError&) {
      // Stale version, torn write, hand-damaged file, another key's
      // document, or names this graph lacks (a renamed structural twin's
      // file). Deterministic —
      // re-reading would reject again every request — so quarantine the
      // file (one rename) and treat the key as a miss: the caller
      // re-searches and the insert writes a fresh file at this path.
      if (std::rename(path.c_str(), (path + ".quarantine").c_str()) == 0) {
        cache_metrics().quarantined->add(1);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.quarantined;
      }
      cache_metrics().disk_rejects->add(1);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.disk_rejects;
      return std::nullopt;
    }
  }
  // Retries exhausted: the disk tier degrades to a miss, never an error.
  cache_metrics().disk_misses->add(1);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.disk_misses;
  return std::nullopt;
}

void PlanCache::disk_insert(const PlanKey& key,
                            const core::TapResult& result,
                            const ir::TapGraph& tg) {
  const std::string path = disk_path(key);
  if (path.empty()) return;
  // Atomic publish: never expose a partially-written file to concurrent
  // readers (or to the next process after a crash).
  const std::string tmp = path + ".tmp";
  const std::string json = disk_file_json(tg, key, result);
  for (int attempt = 0; attempt <= opts_.io_retries; ++attempt) {
    if (attempt > 0) count_retry(attempt);
    try {
      {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) return;  // unwritable disk tier degrades to memory-only
        TAP_FAULT_POINT("cache.disk.write");
        out << json;
      }
      // The crash window the crash-safety test targets: tmp is fully
      // written but not yet published. A fault here leaves tmp behind ON
      // PURPOSE (simulating a killed process); the constructor sweep and
      // the ios::trunc rewrite above both handle the leftover.
      TAP_FAULT_POINT("cache.disk.rename");
      if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return;
      }
      cache_metrics().disk_writes->add(1);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.disk_writes;
      return;
    } catch (const util::FaultInjectedError&) {
      continue;  // transient I/O failure: retry with backoff
    }
  }
  // Retries exhausted: the plan stays served from the memory tier.
}

std::optional<PlanRecord> PlanCache::lookup(const PlanKey& key,
                                            const ir::TapGraph& tg,
                                            Tier* tier) {
  if (tier != nullptr) *tier = Tier::kMiss;
  if (auto hit = memory_lookup(key)) {
    if (tier != nullptr) *tier = Tier::kMemory;
    return hit;
  }
  cache_metrics().mem_misses->add(1);
  if (obs::TraceSession* s = obs::active_session())
    s->instant("cache.mem.miss", "cache");
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.memory_misses;
  }
  if (auto hit = disk_lookup(key, tg)) {
    memory_insert(key, *hit);
    if (tier != nullptr) *tier = Tier::kDisk;
    return hit;
  }
  return std::nullopt;
}

void PlanCache::insert(const PlanKey& key, const core::TapResult& result,
                       const ir::TapGraph& tg) {
  memory_insert(key, record_of(result));
  disk_insert(key, result, tg);
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tap::service
