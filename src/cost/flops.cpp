#include "cost/flops.h"

#include <algorithm>

namespace tap::cost {

namespace {

/// Ops the roofline charges nothing for.
bool untimed(OpKind kind) {
  return is_aux(kind) || is_comm(kind) || kind == OpKind::kPlaceholder ||
         kind == OpKind::kConst;
}

}  // namespace

double op_time(const OpWork& work, const ClusterSpec& cluster, double shrink,
               bool fused) {
  if (untimed(work.kind)) return 0.0;
  const double s = std::max(shrink, 1.0);
  const double compute = work.flops / s / cluster.effective_flops();
  const double memory = static_cast<double>(work.bytes) / s / cluster.mem_bw;
  return std::max(compute, memory) +
         (fused ? 0.0 : cluster.kernel_launch_overhead);
}

double op_time(const Node& n, const Graph& g, const ClusterSpec& cluster,
               double shrink, bool fused) {
  if (untimed(n.kind)) return 0.0;  // not worth counting its work
  return op_time(op_work(n, g), cluster, shrink, fused);
}

double backward_factor(OpKind kind) {
  return may_have_weight(kind) ? 2.0 : 1.0;
}

}  // namespace tap::cost
