#include "spans.h"

#include <chrono>
#include <fstream>

#include "common.h"

namespace perfbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

const char* pass_span_name(const std::string& pass) {
  if (pass == "BuildPatternTable") return "planner.pass.build_pattern_table";
  if (pass == "Prune") return "planner.pass.prune";
  if (pass == "FamilySearch") return "planner.pass.family_search";
  if (pass == "GlobalRefine") return "planner.pass.global_refine";
  if (pass == "FinalizeCost") return "planner.pass.finalize_cost";
  return "planner.pass.other";
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.op = op_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_us = now_us();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  stack_.pop_back();
}

void Tracer::add_closed(const char* name, double start_us, double end_us) {
  Span s;
  s.name = name;
  s.op = op_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_us = start_us;
  s.end_us = end_us;
  spans_.push_back(s);
}

OpLayers self_times(const std::vector<const Tracer*>& tracers) {
  OpLayers out;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0)
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out[s.op][s.name] += (s.end_us - s.start_us) - child_us[i];
    }
  }
  return out;
}

std::map<std::uint64_t, double> span_durations(
    const std::vector<const Tracer*>& tracers, const std::string& name) {
  std::map<std::uint64_t, double> out;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans())
      if (name == s.name) out[s.op] += s.end_us - s.start_us;
  }
  return out;
}

std::map<std::string, double> mean_self_ms(
    const OpLayers& layers, const std::vector<std::uint64_t>& ops) {
  std::map<std::string, double> out;
  for (std::uint64_t op : ops)
    for (const auto& [name, us] : layers.at(op))
      out[name] += us / 1e3 / static_cast<double>(ops.size());
  return out;
}

std::string accounting_line(const std::map<std::string, double>& means,
                            double op_ms) {
  std::string line = "accounting (mean ms per traced op):";
  double sum = 0.0;
  for (const auto& [name, ms] : means) {
    line += format(" %s=%.4f", name == "op" ? "unattributed" : name.c_str(),
                   ms);
    sum += ms;
  }
  return line + format(" | sum=%.4f op=%.4f", sum, op_ms);
}

bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t ti = 0; ti < tracers.size(); ++ti) {
    for (const Span& s : tracers[ti]->spans()) {
      f << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"tracer\":" << ti << ",\"parent\":" << s.parent
        << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << "}\n";
    }
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
