// Shared pieces of tap_perfbench: command-line options, the
// result every workload returns, timing and summary statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
  /// Directory for files the workload creates (the disk tier).
  std::string work_dir = ".";
};

/// What one run reports. `metrics` holds every metric the workload
/// measured in this mode; the wrapper script selects and labels them.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// accounting tables, reasons a run was marked invalid).
  std::vector<std::string> notes;
};

RunResult run_plan_cold(const Options& opts);
RunResult run_serve_churn(const Options& opts);

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time, ms, of the calling thread and of the whole process. Time a
/// thread waits (for a CPU, a lock, I/O, or because the host ran another
/// VM) does not count.
double thread_cpu_ms();
double process_cpu_ms();

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; an
/// infinite sample (a failed op) sorts last.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);
double geomean(const std::vector<double>& v);

/// One timed op: when it started (seconds since the timed phase began)
/// and how long it took (ms; infinity for a failed op).
struct Sample {
  double start_s = 0.0;
  double ms = 0.0;
};

/// Mean of every sample's time.
double mean_ms(const std::vector<Sample>& samples);

/// Quantile `q` of every sample's time, appended to `note` with the
/// number of samples beyond it.
double percentile_ms(const std::vector<Sample>& samples, double q,
                     std::string* note);

/// Peak resident set size of this process, MB (VmHWM).
double peak_rss_mb();

/// Number of hardware threads (at least 1).
int hardware_threads();

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, tap::util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
