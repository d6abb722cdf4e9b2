// Per-operator compute cost estimators used by the cost model's compute
// side and by the training-step simulator. The mesh-independent FLOP and
// byte counts they start from are in graph/op_work.h.
//
// The model is a standard roofline: an op takes
//   max(flops / device_flops, bytes_touched / mem_bw) + launch_overhead.
// Dense contractions (MatMul/Conv) are compute bound; everything else
// (elementwise, norms, embedding lookups) is memory bound.
#pragma once

#include <cstdint>

#include "cost/cluster.h"
#include "graph/graph.h"
#include "graph/op_work.h"

namespace tap::cost {

/// Roofline time of the forward computation of `n` on one device, with the
/// work optionally divided by `shrink` (the parallel speedup of a split
/// pattern). `fused` skips the launch overhead (XLA-style fusion).
double op_time(const Node& n, const Graph& g, const ClusterSpec& cluster,
               double shrink = 1.0, bool fused = false);

/// op_time from an op's op_work (a TapGraph's stored op_work, say): the
/// same arithmetic, so the same double.
double op_time(const OpWork& work, const ClusterSpec& cluster,
               double shrink = 1.0, bool fused = false);

/// Backward compute is roughly 2× forward for weighted ops (grad wrt input
/// and wrt weight) and 1× for the rest.
double backward_factor(OpKind kind);

}  // namespace tap::cost
