#include "calib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>

#include <sched.h>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t* s) {
  std::uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The fixed task; returns a checksum so no part of it can be elided.
std::uint64_t calibration_task() {
  constexpr std::size_t kN = 1 << 14;
  std::uint64_t seed = 0xca11b7a7e5eedull;
  std::vector<std::uint64_t> v(kN);
  for (std::uint64_t& x : v) x = splitmix64(&seed);
  std::sort(v.begin(), v.end());

  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::size_t i = 0; i < kN; ++i) table[v[i] >> 44] += i;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kN; ++i)
    sum += table.find(v[(i * 7919) % kN] >> 44)->second;

  std::map<std::uint64_t, std::size_t> ordered;
  for (std::size_t i = 0; i < kN; i += 8) ordered[v[(i * 31) % kN]] = i;
  for (std::size_t i = 0; i < kN; i += 8)
    sum += ordered.lower_bound(v[(i * 17) % kN])->second;

  double acc = 0.0;
  for (std::size_t i = 0; i < kN; ++i)
    acc += std::sqrt(static_cast<double>(v[i] & 0xffffff));

  std::string text;
  for (std::size_t i = 0; i < kN; i += 4) {
    text += std::to_string(v[i] % 100000);
    text += ',';
  }
  return sum ^ static_cast<std::uint64_t>(acc) ^ text.size();
}

volatile std::uint64_t g_sink = 0;

}  // namespace

double time_calibration() {
  const double t0 = thread_cpu_ms();
  g_sink = g_sink + calibration_task();
  return thread_cpu_ms() - t0;
}

void HostSpeed::sample(double at_s) {
  const double ms = time_calibration();
  at_s_.push_back(at_s);
  ms_.push_back(ms);
}

double HostSpeed::calib_ms(double from_s, double to_s) const {
  std::vector<double> in;
  for (std::size_t i = 0; i < ms_.size(); ++i)
    if (at_s_[i] >= from_s && at_s_[i] < to_s) in.push_back(ms_[i]);
  return in.empty() ? median_ms() : median(in);
}

double HostSpeed::scale_at(double at_s, double seconds) const {
  const double width = seconds / kSlices;
  const int w = std::clamp(static_cast<int>(at_s / width), 0, kSlices - 1);
  // The last window also holds whatever ran past the phase's end.
  const double to = w == kSlices - 1 ? 1e300 : (w + 1) * width;
  return scale(w * width, to);
}

void to_reference(std::vector<Sample>* samples, const HostSpeed& speed,
                  double seconds) {
  for (Sample& x : *samples) x.ms *= speed.scale_at(x.start_s, seconds);
}

void pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace perfbench
