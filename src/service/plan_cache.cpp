#include "service/plan_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <filesystem>
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
  obs::Counter* torn_tails = obs::registry().counter("cache.disk.torn_tails");
  obs::Counter* lock_fallbacks =
      obs::registry().counter("cache.disk.lock_fallbacks");
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

/// Reads exactly `size` bytes at `offset`; false on an I/O error or EOF.
bool pread_all(int fd, char* buf, std::size_t size, std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, buf, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Writes all of `data` at `offset`; false on an I/O error.
bool pwrite_all(int fd, std::string_view data, std::uint64_t offset) {
  while (!data.empty()) {
    const ssize_t n =
        ::pwrite(fd, data.data(), data.size(), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Longer than any header: a key's hex, ' ', up to 20 digits and '\n'.
constexpr std::size_t kHeaderWindow = 128;

/// Indexes the complete records of the `size`-byte log behind `fd` (the
/// last record of a key wins) and returns where they end: `size`, or the
/// start of a torn tail. A record under a key no current PlanKey spells
/// (another kPlanKeyVersion) is framed, so it is stepped over, not indexed.
template <typename Index>
std::uint64_t scan_log(int fd, std::uint64_t size, Index* index) {
  std::uint64_t pos = 0;
  char buf[kHeaderWindow];
  while (pos < size) {
    const std::size_t want = std::min<std::uint64_t>(kHeaderWindow, size - pos);
    if (!pread_all(fd, buf, want, pos)) break;
    const std::string_view window(buf, want);
    const std::size_t eol = window.find('\n');
    const std::size_t space = window.find(' ');
    if (eol == std::string_view::npos || space >= eol) break;
    std::uint64_t length = 0;
    const char* digits = buf + space + 1;
    const auto [end, ec] = std::from_chars(digits, buf + eol, length);
    if (ec != std::errc() || end != buf + eol || digits == end) break;
    const std::uint64_t payload = pos + eol + 1;
    if (length >= size - payload) break;  // no room for the final '\n'
    char last = 0;
    if (!pread_all(fd, &last, 1, payload + length) || last != '\n') break;
    if (auto key = PlanKey::from_hex(window.substr(0, space)))
      (*index)[*key] = {payload, length};
    pos = payload + length + 1;
  }
  return pos;
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

std::string plan_log_record(const PlanKey& key, std::string_view payload) {
  std::string record = key.to_hex();
  record += ' ';
  record += std::to_string(payload.size());
  record += '\n';
  record += payload;
  record += '\n';
  return record;
}

PlanCache::PlanCache(PlanCacheOptions opts) : opts_(std::move(opts)) {
  TAP_CHECK_GE(opts_.capacity, 1u);
  TAP_CHECK_GE(opts_.io_retries, 0);
  TAP_CHECK_GE(opts_.retry_backoff_ms, 0.0);
  if (!opts_.disk_dir.empty()) open_log();
}

PlanCache::~PlanCache() {
  if (log_fd_ >= 0) ::close(log_fd_);  // releases the flock
}

void PlanCache::open_log() {
  fs::create_directories(opts_.disk_dir);
  const int fd = ::open(log_path().c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return;  // an unwritable disk tier degrades to memory-only
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    // Another cache writes this log: appending alongside it would
    // interleave records, so this one stays memory-only.
    ::close(fd);
    cache_metrics().lock_fallbacks->add(1);
    ++stats_.lock_fallbacks;
    return;
  }
  const off_t file_size = ::lseek(fd, 0, SEEK_END);
  if (file_size < 0) {
    ::close(fd);
    return;
  }
  const auto size = static_cast<std::uint64_t>(file_size);
  const std::uint64_t end = scan_log(fd, size, &log_index_);
  if (end < size) {
    // A torn tail, as a crashed append leaves: cut it so the next append
    // starts on a record boundary.
    if (::ftruncate(fd, static_cast<off_t>(end)) != 0) {
      ::close(fd);
      log_index_.clear();
      return;
    }
    cache_metrics().torn_tails->add(1);
    ++stats_.torn_tails;
  }
  log_fd_ = fd;
  log_end_ = end;
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

std::string PlanCache::log_path() const {
  if (opts_.disk_dir.empty()) return "";
  return (fs::path(opts_.disk_dir) / "plans.log").string();
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
  if (log_fd_ < 0) return std::nullopt;
  std::optional<Extent> extent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = log_index_.find(key);
    if (it != log_index_.end()) extent = it->second;
  }
  for (int attempt = 0; extent && attempt <= opts_.io_retries; ++attempt) {
    if (attempt > 0) count_retry(attempt);
    try {
      TAP_FAULT_POINT("cache.disk.read");
      std::string text(extent->size, '\0');
      // A real read error is not retried: the key degrades to a miss.
      if (!pread_all(log_fd_, text.data(), text.size(), extent->offset)) break;
      PlanRecord record = disk_file_from_json(tg, key, text);
      cache_metrics().disk_hits->add(1);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.disk_hits;
      return record;
    } catch (const util::FaultInjectedError&) {
      continue;  // transient I/O failure: retry with backoff
    } catch (const CheckError&) {
      // Stale version, hand-damaged record, another key's document, or
      // names this graph lacks (a renamed structural twin's record).
      // Deterministic — re-reading would reject again every request — so
      // drop the record from the index and treat the key as a miss: the
      // caller re-searches and the insert appends a record that supersedes
      // it. The bytes stay in the log for post-mortem.
      cache_metrics().quarantined->add(1);
      cache_metrics().disk_rejects->add(1);
      std::lock_guard<std::mutex> lock(mu_);
      auto it = log_index_.find(key);
      if (it != log_index_.end() && it->second.offset == extent->offset)
        log_index_.erase(it);  // unless an insert already superseded it
      ++stats_.quarantined;
      ++stats_.disk_rejects;
      return std::nullopt;
    }
  }
  // No record, or retries exhausted: the disk tier degrades to a miss,
  // never an error.
  cache_metrics().disk_misses->add(1);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.disk_misses;
  return std::nullopt;
}

void PlanCache::disk_insert(const PlanKey& key,
                            const core::TapResult& result,
                            const ir::TapGraph& tg) {
  if (log_fd_ < 0) return;
  const std::string payload = disk_file_json(tg, key, result);
  const std::string record = plan_log_record(key, payload);
  const std::size_t header = record.size() - payload.size() - 1;
  for (int attempt = 0; attempt <= opts_.io_retries; ++attempt) {
    if (attempt > 0) count_retry(attempt);
    try {
      std::lock_guard<std::mutex> append(append_mu_);
      TAP_FAULT_POINT("cache.disk.write");
      // An unwritable log degrades this plan to the memory tier. log_end_
      // stays put, so the next append overwrites any partial bytes, and
      // the next open cuts whatever a longer failed write left beyond it.
      if (!pwrite_all(log_fd_, record, log_end_)) return;
      const Extent extent{log_end_ + header, payload.size()};
      log_end_ += record.size();
      // Published only now, so a reader never sees a half-written record.
      {
        std::lock_guard<std::mutex> lock(mu_);
        log_index_[key] = extent;
        ++stats_.disk_writes;
      }
      cache_metrics().disk_writes->add(1);
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
