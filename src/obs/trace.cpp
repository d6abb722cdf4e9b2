#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <sstream>

#include "util/check.h"
#include "util/json.h"

namespace tap::obs {

namespace {

using util::json_escape;

std::atomic<TraceSession*> g_active{nullptr};
std::atomic<std::uint64_t> g_epoch{0};

}  // namespace

double steady_now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceSession* active_session() {
  return g_active.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// chrome_trace_json — the one writer of the shared schema
// ---------------------------------------------------------------------------

std::string chrome_trace_json(
    const std::vector<TraceEvent>& events,
    const std::map<int, std::string>& process_names) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [pid, pname] : process_names) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(pname) << "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.category) << "\",\"ph\":\"";
    switch (e.phase) {
      case TraceEvent::Phase::kComplete:
        os << "X";
        break;
      case TraceEvent::Phase::kInstant:
        os << "i\",\"s\":\"t";
        break;
      case TraceEvent::Phase::kAsyncBegin:
        os << "b\",\"id\":\"" << e.id;
        break;
      case TraceEvent::Phase::kAsyncEnd:
        os << "e\",\"id\":\"" << e.id;
        break;
    }
    os << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
       << ",\"ts\":" << static_cast<long long>(e.start_us);
    if (e.phase == TraceEvent::Phase::kComplete)
      os << ",\"dur\":" << static_cast<long long>(e.dur_us);
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool afirst = true;
      for (const auto& [k, v] : e.args) {
        if (!afirst) os << ",";
        afirst = false;
        os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// TraceSession
// ---------------------------------------------------------------------------

namespace {

// Per-thread buffer cache: valid while (session, epoch) matches, so a new
// session at a reused address can never alias a stale buffer.
thread_local const TraceSession* t_session = nullptr;
thread_local std::uint64_t t_epoch = 0;
thread_local void* t_buffer = nullptr;

}  // namespace

TraceSession::~TraceSession() { stop(); }

void TraceSession::start() {
  TAP_CHECK(g_active.load(std::memory_order_relaxed) == nullptr)
      << "another TraceSession is already active";
  t0_us_ = steady_now_us();
  epoch_ = g_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  // The release store publishes t0/epoch to threads that observe the
  // session through active_session()'s acquire load.
  g_active.store(this, std::memory_order_release);
}

void TraceSession::stop() {
  TraceSession* self = this;
  g_active.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
}

bool TraceSession::active() const {
  return g_active.load(std::memory_order_relaxed) == this;
}

double TraceSession::now_us() const { return steady_now_us() - t0_us_; }

TraceSession::ThreadBuffer& TraceSession::local_buffer() {
  if (t_session == this && t_epoch == epoch_)
    return *static_cast<ThreadBuffer*>(t_buffer);
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer& buf = *buffers_.back();
  buf.tid = static_cast<std::int64_t>(buffers_.size()) - 1;
  t_session = this;
  t_epoch = epoch_;
  t_buffer = &buf;
  return buf;
}

void TraceSession::append(TraceEvent e) {
  ThreadBuffer& buf = local_buffer();
  e.tid = buf.tid;
  buf.events.push_back(std::move(e));
}

void TraceSession::add_complete(std::string name, std::string category,
                                double start_us, double dur_us, int pid,
                                std::int64_t tid,
                                std::map<std::string, std::string> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.phase = TraceEvent::Phase::kComplete;
  e.start_us = start_us;
  e.dur_us = dur_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  foreign_.push_back(std::move(e));
}

void TraceSession::instant(std::string name, std::string category,
                           std::map<std::string, std::string> args) {
  if (!active()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.phase = TraceEvent::Phase::kInstant;
  e.start_us = now_us();
  e.args = std::move(args);
  append(std::move(e));
}

void TraceSession::async_begin(std::string name, std::string category,
                               std::uint64_t id,
                               std::map<std::string, std::string> args) {
  if (!active()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.phase = TraceEvent::Phase::kAsyncBegin;
  e.start_us = now_us();
  e.id = id;
  e.args = std::move(args);
  append(std::move(e));
}

void TraceSession::async_end(std::string name, std::string category,
                             std::uint64_t id) {
  if (!active()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.phase = TraceEvent::Phase::kAsyncEnd;
  e.start_us = now_us();
  e.id = id;
  append(std::move(e));
}

std::vector<TraceEvent> TraceSession::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  std::size_t n = foreign_.size();
  for (const auto& buf : buffers_) n += buf->events.size();
  out.reserve(n);
  for (const auto& buf : buffers_)
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  out.insert(out.end(), foreign_.begin(), foreign_.end());
  return out;
}

std::string TraceSession::to_chrome_json() const {
  return chrome_trace_json(events(),
                           {{0, "planner"}, {1, "simulated step"}});
}

std::size_t TraceSession::thread_buffer_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

// ---------------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : session_(active_session()) {
  if (session_ == nullptr) return;  // the measured disabled path
  name_ = name;
  category_ = category;
  start_us_ = session_->now_us();
}

ScopedSpan::ScopedSpan(const std::string& name, const char* category)
    : session_(active_session()) {
  if (session_ == nullptr) return;
  name_ = name;
  category_ = category;
  start_us_ = session_->now_us();
}

void ScopedSpan::arg(std::string key, std::string value) {
  if (session_ == nullptr) return;
  args_[std::move(key)] = std::move(value);
}

ScopedSpan::~ScopedSpan() {
  if (session_ == nullptr) return;
  TraceEvent e;
  e.name = std::move(name_);
  e.category = category_;
  e.phase = TraceEvent::Phase::kComplete;
  e.start_us = start_us_;
  e.dur_us = session_->now_us() - start_us_;
  e.args = std::move(args_);
  session_->append(std::move(e));
}

}  // namespace tap::obs
