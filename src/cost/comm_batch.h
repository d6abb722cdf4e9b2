// Batched candidate costing: cost::comm_cost over many routed
// candidates at once, as a structure-of-arrays pipeline.
// FamilySearchContext::stage fills it; the planner's own family search
// no longer does, as it costs candidates incrementally with
// FamilyCandidateEvaluator (cost/candidate_eval.h).
//
// A CommEventBatch collects the comm events of up to kCostBatchWidth
// routed candidates into parallel arrays (bytes, group, efficiency,
// phase/overlap masks, ...), one lane per candidate, zero-padded to the
// deepest lane. comm_cost_batch() then reduces all lanes in one pass
// through either the scalar reference kernel or the AVX2 SPMD kernel
// (cost/comm_kernel.h), selected once per process by CPU capability and
// overridable with TAP_FORCE_SCALAR=1. Both kernels produce bit-identical
// cost doubles: vectorization is across independent candidates only, so
// each candidate's accumulation order — and therefore every plan byte,
// cache key, and report — is unchanged.
//
// CostArena is the per-thread scratch that makes candidate evaluation
// allocation-free in steady state: the incremental evaluator, reusable
// routing buffers (probe + exit-spec route) and the batch with its result
// slots. Policies obtain one via tls_cost_arena().
#pragma once

#include <optional>

#include "cost/candidate_eval.h"
#include "cost/comm_kernel.h"
#include "cost/cost_model.h"
#include "sharding/routing.h"

namespace tap::cost {

/// Which kernel serves comm_cost_batch() calls.
enum class CostKernel : std::uint8_t { kScalar, kAvx2 };

const char* cost_kernel_name(CostKernel k);

/// Candidate lanes the kernel evaluates per pass: kCostBatchWidth for the
/// AVX2 kernel, 1 for the scalar reference (it walks lanes one by one).
int cost_kernel_width(CostKernel k);

/// The process-wide kernel decision, made once on first use: AVX2 when
/// the binary carries the kernel and the CPU supports it, unless
/// TAP_FORCE_SCALAR is set to anything but "0". Also publishes the
/// cost.kernel_width gauge.
CostKernel active_cost_kernel();

/// Test hook: force the kernel for subsequent comm_cost_batch() calls
/// (nullopt restores the environment/CPU decision). Requesting kAvx2 on a
/// host without the kernel throws. Not thread-safe; call from test setup
/// only.
void set_cost_kernel_for_testing(std::optional<CostKernel> k);

/// SoA batch of the comm events of up to kCostBatchWidth routed
/// candidates. Event slot (row r, lane l) lives at index
/// r * kCostBatchWidth + l; lanes shorter than rows() are zero-padded, so
/// padding rows cost +0.0 in every kernel.
class CommEventBatch {
 public:
  /// Drops all lanes; keeps the row capacity (steady-state reuse).
  void reset();

  int lanes() const { return lanes_; }
  bool empty() const { return lanes_ == 0; }
  bool full() const { return lanes_ == kCostBatchWidth; }
  std::size_t rows() const { return rows_; }

  /// Copies `routed`'s comm events into the next lane, resolving each
  /// event's collective group against `num_shards` (comm_cost's rule) and
  /// recording the candidate's overlap options. Returns the lane index.
  /// Precondition: !full() and routed.valid.
  int add_candidate(const sharding::RoutedPlan& routed, int num_shards,
                    const CostOptions& opts);

  /// Read-only kernel view over the current contents bound to `cluster`'s
  /// uniform scalars. Valid until the next add_candidate/reset.
  CommBatchView view(const ClusterSpec& cluster) const;

 private:
  void ensure_rows(std::size_t rows);

  int lanes_ = 0;
  std::size_t rows_ = 0;      ///< deepest lane's event count
  std::size_t row_cap_ = 0;   ///< allocated rows
  std::vector<std::size_t> lane_events_;  ///< events per lane

  // Event slots, row-major (see class comment). Masks are all-ones /
  // all-zeros 64-bit patterns the AVX2 kernel loads directly as blends.
  std::vector<double> bytes_d_, count_d_, group_d_, eff_, wire_mul_,
      steps_mul_;
  std::vector<std::uint64_t> m_active_, m_overlap_, m_backward_, m_cross_,
      m_broadcast_;
  std::vector<std::int64_t> bytes_count_;

  // Per-lane overlap options.
  double window_[kCostBatchWidth] = {};
  double frac_[kCostBatchWidth] = {};
};

/// Costs every lane of `batch` on `cluster` with the active kernel,
/// writing one PlanCost per lane into out[0 .. batch.lanes()). Each
/// lane's doubles are bit-identical to
/// comm_cost(routed, num_shards, cluster, opts) for the candidate that
/// filled it. Bumps cost.batches / cost.candidates_batched.
void comm_cost_batch(const CommEventBatch& batch, const ClusterSpec& cluster,
                     PlanCost out[kCostBatchWidth]);

/// comm_cost_batch with an explicit kernel — the differential tests and
/// the microbench drive both implementations over identical batches.
void comm_cost_batch_with(CostKernel kernel, const CommEventBatch& batch,
                          const ClusterSpec& cluster,
                          PlanCost out[kCostBatchWidth]);

/// Per-thread scratch for candidate evaluation: the FamilySearch
/// policies' incremental evaluator, plus the routing buffers and event
/// batch FamilySearchContext::stage fills (no RoutedPlan vector churn).
struct CostArena {
  FamilyCandidateEvaluator candidates;
  sharding::RoutingScratch routing;
  sharding::RoutedPlan probe;   ///< replicated-boundary probe route
  sharding::RoutedPlan routed;  ///< steady-state (exit-spec) route
  CommEventBatch batch;
  PlanCost results[kCostBatchWidth];
};

/// The calling thread's CostArena (function-local thread_local).
CostArena& tls_cost_arena();

}  // namespace tap::cost
