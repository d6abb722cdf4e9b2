// Discrete-event simulator for one distributed training iteration.
//
// The hardware substitute for the paper's 8/16×V100 testbed (see
// DESIGN.md). The simulated machine is SPMD: every device executes the
// same per-device program, so one device's timeline with two resources —
// a COMPUTE stream and a COMM stream — determines the iteration time.
//
// Tasks and dependencies:
//   * forward compute, one task per GraphNode cluster (roofline op times,
//     shrunk by the parallel speedup of its sharding pattern);
//   * forward collectives and blocking backward collectives (partial-sum
//     AllReduces, layout conversions) occupy BOTH streams — they sit on
//     the activation/gradient critical path;
//   * weight-gradient AllReduces ride the COMM stream only, so they
//     overlap backward compute (§4.6); gradient packing (§4.7.1) batches
//     them into buckets and the weight-update tasks pipeline per bucket;
//   * optional XLA-style fusion removes per-kernel launch overhead from
//     elementwise ops but forces collectives to synchronize with the
//     compute stream (operator clustering hinders overlap, §6.2.2).
#pragma once

#include "cost/cluster.h"
#include "cost/cost_model.h"
#include "rewrite/packing.h"
#include "sharding/routing.h"
#include "sim/trace.h"

namespace tap::sim {

struct SimOptions {
  bool gradient_packing = true;
  rewrite::PackingOptions packing;
  /// XLA-style JIT fusion (Fig. 8): fuses elementwise kernels (no launch
  /// overhead) but collectives lose compute overlap.
  bool xla_fusion = false;
  /// §4.8 training techniques (AMP / recomputation / ZeRO-1).
  cost::TrainingOptions training;
  /// Optional execution-trace sink (chrome://tracing export).
  Trace* trace = nullptr;
};

struct StepBreakdown {
  double iteration_s = 0.0;        ///< makespan of one training step
  double forward_compute_s = 0.0;  ///< Σ forward compute task durations
  double backward_compute_s = 0.0;
  double update_s = 0.0;          ///< Σ weight-update task durations
  double comm_s = 0.0;            ///< Σ collective durations (busy time)
  double exposed_comm_s = 0.0;    ///< makespan − compute busy time
  std::size_t comm_messages = 0;  ///< collectives launched (after packing)
  cost::MemoryEstimate memory;    ///< per-device memory

  double compute_s() const {
    return forward_compute_s + backward_compute_s + update_s;
  }
};

/// Simulates one training iteration of `routed` (a valid plan for the
/// graph `tg` was lowered from) on `cluster`, at the mesh the plan was
/// routed for: each collective runs over its routed event's group.
/// `num_shards` must equal `routed.num_shards` (checked); nothing else
/// reads it. It stays only because the perfbench harness passes it, and
/// goes with the next change to the benchmark.
StepBreakdown simulate_step(const ir::TapGraph& tg,
                            const sharding::RoutedPlan& routed,
                            int num_shards, const cost::ClusterSpec& cluster,
                            const SimOptions& opts = {});

}  // namespace tap::sim
