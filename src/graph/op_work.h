// The mesh-independent work of one operator: the FLOPs and bytes the
// roofline in cost/flops divides by device speed. Neither depends on the
// mesh or the cluster, so a lowered TapGraph computes them once per op in
// finalize() and every per-mesh cost reads the stored values.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace tap {

/// Floating-point operations of the forward computation of `n`.
double op_flops(const Node& n);

/// Bytes read+written by the forward computation of `n` (inputs from `g`,
/// its weight, and its output).
std::int64_t op_bytes_touched(const Node& n, const Graph& g);

/// What the roofline reads of one op: its kind and both counts above.
struct OpWork {
  OpKind kind = OpKind::kNoOp;
  double flops = 0.0;
  std::int64_t bytes = 0;
};

inline OpWork op_work(const Node& n, const Graph& g) {
  return {n.kind, op_flops(n), op_bytes_touched(n, g)};
}

}  // namespace tap
