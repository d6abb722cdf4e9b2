// The traced run's span recorder. The benchmark opens a span around each
// call it makes into a layer's public function; spans live in memory
// (one Tracer per client thread, no locking) and are written out when the
// run ends. A layer's self time is its span's duration minus the time its
// child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static storage
  std::uint64_t op = 0;   ///< shared by every span of one op
  std::int32_t parent = -1;  ///< index in the same Tracer, -1 = root
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Span name of a planner pipeline pass ("FamilySearch" ->
/// "planner.pass.family_search"), in static storage.
const char* pass_span_name(const std::string& pass);

/// Microseconds on the steady clock since the process started.
double now_us();

class Tracer {
 public:
  /// Starts a new op; spans opened until the next begin_op belong to it.
  void begin_op(std::uint64_t op) { op_ = op; }
  int open(const char* name);
  void close(int index);
  /// Records an already-finished span as a child of the innermost open
  /// span (for durations the program reports, e.g. pass timings).
  void add_closed(const char* name, double start_us, double end_us);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t op_ = 0;
};

class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name)
      : t_(t), index_(t != nullptr ? t->open(name) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int index_;
};

/// Probe spans (timed calls outside an op) get this bit in their op id,
/// so they stay out of the op's accounting.
inline constexpr std::uint64_t kProbeOp = 1ull << 63;

/// Self time in microseconds per (op, span name), over every tracer.
using OpLayers = std::map<std::uint64_t, std::map<std::string, double>>;
OpLayers self_times(const std::vector<const Tracer*>& tracers);

/// Duration in microseconds of every span named `name`, per op.
std::map<std::uint64_t, double> span_durations(
    const std::vector<const Tracer*>& tracers, const std::string& name);

/// Mean self time in ms per op over `ops`, by span name; the entry "op"
/// is the op span's own self time, i.e. the unattributed time.
std::map<std::string, double> mean_self_ms(
    const OpLayers& layers, const std::vector<std::uint64_t>& ops);

/// One line listing every layer's mean self ms and their sum against the
/// mean traced op, which it must equal.
std::string accounting_line(const std::map<std::string, double>& means,
                            double op_ms);

/// Writes every span as one JSON object per line. Returns false on I/O
/// failure.
bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
