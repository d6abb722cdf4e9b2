#include "util/fault.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "util/check.h"
#include "util/hash.h"
#include "util/strings.h"

namespace tap::util {
namespace {

double parse_double(std::string_view tok, const char* what) {
  TAP_CHECK(!tok.empty()) << "fault spec: empty " << what;
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(std::string(tok), &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  TAP_CHECK(pos == tok.size())
      << "fault spec: bad " << what << " '" << tok << "'";
  return v;
}

}  // namespace

FaultInjector::FaultInjector(const std::string& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  for (const std::string& entry : split(spec, ',')) {
    if (entry.empty()) continue;  // tolerate "a=throw,," trailing commas
    const std::size_t eq = entry.find('=');
    TAP_CHECK(eq != std::string::npos)
        << "fault spec entry missing '=': '" << entry << "'";
    const std::string site = entry.substr(0, eq);
    TAP_CHECK(!site.empty()) << "fault spec: empty site in '" << entry << "'";
    const std::vector<std::string> parts =
        split(std::string_view(entry).substr(eq + 1), ':');
    TAP_CHECK(!parts.empty() && !parts[0].empty())
        << "fault spec: missing action for site '" << site << "'";

    Rule rule;
    std::size_t next = 1;  // index of the first optional token after action
    if (parts[0] == "throw") {
      rule.action = Action::kThrow;
    } else if (parts[0] == "fail") {
      rule.action = Action::kFail;
    } else if (parts[0] == "delay") {
      rule.action = Action::kDelay;
      TAP_CHECK(parts.size() >= 2)
          << "fault spec: delay needs milliseconds for site '" << site
          << "' (site=delay:MS[:P])";
      rule.delay_ms = parse_double(parts[1], "delay milliseconds");
      TAP_CHECK(rule.delay_ms >= 0.0)
          << "fault spec: negative delay for site '" << site << "'";
      next = 2;
    } else {
      TAP_CHECK(false) << "fault spec: unknown action '" << parts[0]
                       << "' for site '" << site
                       << "' (expected throw|fail|delay)";
    }
    if (parts.size() > next) {
      TAP_CHECK(parts.size() == next + 1)
          << "fault spec: trailing tokens for site '" << site << "'";
      rule.probability = parse_double(parts[next], "probability");
      TAP_CHECK(rule.probability >= 0.0 && rule.probability <= 1.0)
          << "fault spec: probability outside [0,1] for site '" << site
          << "'";
    }

    auto s = std::make_unique<Site>();
    s->rule = rule;
    s->site_hash = hash_str(site);
    sites_[site] = std::move(s);  // last entry for a duplicate site wins
  }
}

bool FaultInjector::hit(const char* site) {
  const auto it = sites_.find(std::string_view(site));
  if (it == sites_.end()) return false;
  Site& s = *it->second;
  const std::uint64_t k = s.hits.fetch_add(1, std::memory_order_relaxed);

  // Deterministic per-hit draw: mix (seed, site, hit ordinal) into a
  // uniform in [0, 1). The 53-bit mantissa trick keeps the draw exact.
  const std::uint64_t mixed =
      splitmix64(hash_combine(hash_combine(hash_u64(seed_), s.site_hash), k));
  const double u =
      static_cast<double>(mixed >> 11) * (1.0 / 9007199254740992.0);
  if (u >= s.rule.probability) return false;

  s.injected.fetch_add(1, std::memory_order_relaxed);
  switch (s.rule.action) {
    case Action::kThrow:
      throw FaultInjectedError(it->first);
    case Action::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(s.rule.delay_ms));
      return false;
    case Action::kFail:
      return true;
  }
  return false;  // unreachable
}

std::uint64_t FaultInjector::hits(const std::string& site) const {
  const auto it = sites_.find(site);
  return it == sites_.end()
             ? 0
             : it->second->hits.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(const std::string& site) const {
  const auto it = sites_.find(site);
  return it == sites_.end()
             ? 0
             : it->second->injected.load(std::memory_order_relaxed);
}

namespace {

std::atomic<FaultInjector*>& injector_slot() {
  static std::atomic<FaultInjector*> slot{nullptr};
  return slot;
}

/// fault_hit() calls between their count-in and count-out.
std::atomic<int>& hits_in_flight() {
  static std::atomic<int> n{0};
  return n;
}

/// TAP_FAULT / TAP_FAULT_SEED environment install, run once before main()
/// so CI can put a whole test binary under injection without code changes.
/// A malformed spec is reported and ignored rather than aborting startup.
bool install_from_env() {
  const char* spec = std::getenv("TAP_FAULT");
  if (spec == nullptr || spec[0] == '\0') return false;
  std::uint64_t seed = 0;
  if (const char* s = std::getenv("TAP_FAULT_SEED"))
    seed = std::strtoull(s, nullptr, 10);
  try {
    static FaultInjector env_injector{std::string(spec), seed};
    injector_slot().store(&env_injector, std::memory_order_release);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tap: ignoring invalid TAP_FAULT: %s\n", e.what());
    return false;
  }
}

[[maybe_unused]] const bool g_env_installed = install_from_env();

}  // namespace

FaultInjector* fault_injector() {
  return injector_slot().load(std::memory_order_relaxed);
}

bool fault_hit(const char* site) {
  // Count in, then load the pointer (both seq_cst, as is the exchange and
  // the count read in install_fault_injector). Either this load comes
  // after an install's exchange and sees the new injector, or the
  // install's wait sees this hit in flight and outlasts it.
  hits_in_flight().fetch_add(1, std::memory_order_seq_cst);
  struct CountOut {
    ~CountOut() { hits_in_flight().fetch_sub(1, std::memory_order_release); }
  } count_out;  // also when hit() throws
  FaultInjector* fi = injector_slot().load(std::memory_order_seq_cst);
  return fi != nullptr && fi->hit(site);
}

FaultInjector* install_fault_injector(FaultInjector* fi) {
  FaultInjector* prev = injector_slot().exchange(fi, std::memory_order_seq_cst);
  if (prev == nullptr) return prev;  // nothing for a hit to outlive
  // Hits that loaded `prev` are still counted in; later ones load `fi`.
  // The wait also covers hits on `fi` that overlap it: sites are hit
  // sparsely, so the count drains.
  while (hits_in_flight().load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  return prev;
}

}  // namespace tap::util
