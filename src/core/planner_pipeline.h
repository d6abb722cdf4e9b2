// PlannerPipeline — the staged decomposition of the TAP planner (Fig. 5).
//
// auto_parallel used to be one monolithic loop; it is now an explicit
// sequence of passes over a shared PlanContext:
//
//   BuildPatternTable  precompute per-node sharding patterns for the mesh
//   Prune              Algorithm 1: fold repeated blocks into families
//   FamilySearch       Algorithm 2 per weighted family, via a pluggable
//                      FamilySearchPolicy; independent families run on a
//                      util::ThreadPool with deterministic merging
//   GlobalRefine       full-graph assembly + per-family revert-to-DP check
//   FinalizeCost       final cost with the global overlap window
//                      (GlobalRefine's, when it costed the final route)
//
// Each pass is a small class with name()/run(PlanContext&); the pipeline
// records per-pass wall time (PlanContext::timings), and benches/tests can
// run prefixes (run_prefix) to isolate a stage. The pipeline serves TAP
// alone: the Alpa-like and FlexFlow-like baselines mutate one whole-graph
// plan in their own loops (src/baselines/whole_graph.h).
#pragma once

#include <memory>

#include "core/family_search.h"

namespace tap::core {

/// The cost FinalizeCost gives a routed plan: cost::comm_cost with the
/// full-graph backward compute time at the routed plan's mesh as the
/// overlap window. GlobalRefine and the baselines' WholeGraphScorer cost
/// every route with this recipe, so a loaded, served or reported plan
/// costs what its search did. `ledger` as for comm_cost.
cost::PlanCost finalize_cost(const ir::TapGraph& tg,
                             const sharding::RoutedPlan& routed,
                             const cost::ClusterSpec& cluster,
                             cost::CommLedger* ledger = nullptr);

/// Number of weighted families in `pruning` — the unit count of the
/// FamilySearch pass, and therefore the size of one mesh's checkpoint
/// ordinal range. The mesh sweep uses it to assign disjoint, stable
/// ordinal ranges per (dp, tp) factorization (see auto_parallel_best_mesh).
std::size_t weighted_family_count(const ir::TapGraph& tg,
                                  const pruning::PruneResult& pruning);

class PlannerPass {
 public:
  virtual ~PlannerPass() = default;
  virtual std::string name() const = 0;
  virtual void run(PlanContext& ctx) const = 0;
};

class PlannerPipeline {
 public:
  PlannerPipeline() = default;
  PlannerPipeline(PlannerPipeline&&) = default;
  PlannerPipeline& operator=(PlannerPipeline&&) = default;

  std::size_t size() const { return passes_.size(); }
  const PlannerPass& pass(std::size_t i) const { return *passes_[i]; }

  /// Runs every pass in order, appending one PassTiming per pass to
  /// ctx.timings.
  void run(PlanContext& ctx) const { run_prefix(ctx, passes_.size()); }

  /// Runs only the first `n` passes — benches and tests isolate stages by
  /// executing pipeline prefixes.
  void run_prefix(PlanContext& ctx, std::size_t n) const;

  /// The standard five-pass TAP pipeline. `policy` defaults to
  /// FrontierDpPolicy.
  static PlannerPipeline standard(
      std::shared_ptr<const FamilySearchPolicy> policy = nullptr);

 private:
  PlannerPipeline& add(std::unique_ptr<PlannerPass> pass);

  std::vector<std::unique_ptr<PlannerPass>> passes_;
};

/// Precomputes the per-node pattern lists for the context's mesh. Unlike
/// pruning, this CANNOT be hoisted out of the mesh sweep: patterns_for
/// filters the catalog by divisibility against num_shards and gates the
/// batch-split "dp" pattern on batch % (dp·tp) == 0, so every (dp, tp)
/// factorization owns a different table.
class BuildPatternTablePass final : public PlannerPass {
 public:
  std::string name() const override { return "BuildPatternTable"; }
  void run(PlanContext& ctx) const override;
};

/// Algorithm 1. Copies ctx.shared_pruning when provided (the mesh sweep
/// prunes once — the fold is mesh-independent).
class PrunePass final : public PlannerPass {
 public:
  std::string name() const override { return "Prune"; }
  void run(PlanContext& ctx) const override;
};

/// Algorithm 2 over every weighted family, delegated to the policy.
/// Families are independent (subgraph scoring only reads member choices),
/// so they run concurrently on a util::ThreadPool sized by
/// TapOptions::threads; per-family outcomes and statistics merge in family
/// index order, making plan and counters bit-identical to the sequential
/// run at any thread count.
class FamilySearchPass final : public PlannerPass {
 public:
  explicit FamilySearchPass(std::shared_ptr<const FamilySearchPolicy> policy);
  std::string name() const override { return "FamilySearch"; }
  void run(PlanContext& ctx) const override;

  const FamilySearchPolicy& policy() const { return *policy_; }

 private:
  std::shared_ptr<const FamilySearchPolicy> policy_;
};

/// Assembles and validates the full plan. Subgraph-local scoring cannot
/// see cross-family resharding (e.g. a column-split LM head forcing a huge
/// AllGather at the loss), so refine: for every family, keep its local
/// winner only if the FULL-graph cost agrees; otherwise revert that family
/// to the universal data-parallel fallback. O(families) full-graph
/// routes (route_plan_into), still independent of the per-family
/// candidate counts; a probe whose family is already all zeros is
/// skipped. Leaves the final route's cost in PlanContext::routed_cost.
class GlobalRefinePass final : public PlannerPass {
 public:
  std::string name() const override { return "GlobalRefine"; }
  void run(PlanContext& ctx) const override;
};

/// Final full-graph communication cost with the model-wide overlap window:
/// PlanContext::routed_cost when GlobalRefine left it, else the routed
/// plan costed here.
class FinalizeCostPass final : public PlannerPass {
 public:
  std::string name() const override { return "FinalizeCost"; }
  void run(PlanContext& ctx) const override;
};

}  // namespace tap::core
