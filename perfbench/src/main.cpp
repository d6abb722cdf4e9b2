// tap_perfbench — runs one named workload against the tap planner and
// plan-serving tier, checks every answer, and prints its metrics.
//
//   tap_perfbench --workload plan_cold|serve_churn --seed N
//                 --seconds S --trace 0|1 [--spans-out FILE] [--work-dir D]
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:value,...}}
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result (units, metric selection).
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi]) || std::isinf(v[lo])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean_ms(const std::vector<Sample>& samples) {
  double sum = 0.0;
  for (const Sample& x : samples) sum += x.ms;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double percentile_ms(const std::vector<Sample>& samples, double q,
                     std::string* note) {
  std::vector<double> ms;
  for (const Sample& x : samples) ms.push_back(x.ms);
  const double v = quantile(ms, q);
  *note += format(" p%.0f %.4g ms (%zu of %zu beyond);", q * 100, v,
                  static_cast<std::size_t>(std::count_if(
                      ms.begin(), ms.end(), [v](double m) { return m > v; })),
                  ms.size());
  return v;
}

namespace {
double cpu_clock_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}
}  // namespace

double thread_cpu_ms() { return cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_ms() { return cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "tap_perfbench: %s\nusage: tap_perfbench --workload "
               "plan_cold|serve_churn --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE] [--work-dir DIR]\n",
               why);
  return 2;
}

/// JSON number; a non-finite value (a metric over failed ops) is clamped
/// so the line stays valid JSON.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  return format("%.17g", v);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--spans-out") {
      opts.spans_out = value;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.seconds <= 0) return usage("--seconds must be positive");
  // Two malloc arenas, not up to eight per core: with more, how the
  // server's threads happen to spread over arenas moves the peak resident
  // set by up to a tenth from run to run.
  mallopt(M_ARENA_MAX, 2);

  RunResult r;
  try {
    if (opts.workload == "plan_cold") {
      r = run_plan_cold(opts);
    } else if (opts.workload == "serve_churn") {
      r = run_serve_churn(opts);
    } else {
      return usage(("unknown workload '" + opts.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tap_perfbench: %s failed: %s\n",
                 opts.workload.c_str(), e.what());
    return 1;
  }
  // serve_churn reads its own peak, before its post-run lookups build
  // models again.
  if (!opts.trace) r.metrics.emplace("peak_rss_mb", peak_rss_mb());

  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::string line = format("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
                            "\"metrics\":{",
                            r.correct && r.failed == 0 ? "true" : "false",
                            static_cast<long long>(r.attempted),
                            static_cast<long long>(r.failed));
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    line += (first ? "\"" : ",\"") + name + "\":" + json_number(value);
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
