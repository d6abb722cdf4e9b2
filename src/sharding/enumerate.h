// Candidate-plan enumeration over a pruned subgraph family (§4.4,
// Algorithm 2's enumerateAllPlans). The search space of one family is the
// Cartesian product of its weighted members' applicable patterns — a T5
// transformer block yields 3^6 = 729 candidates (§6.3.1); replicate-only
// members contribute a factor of 1.
#pragma once

#include <cstdint>
#include <vector>

#include "pruning/prune.h"
#include "sharding/pattern.h"
#include "sharding/plan.h"

namespace tap::sharding {

/// The per-member counts are those of the mesh's PatternTable, the catalog
/// the router reads every plan index against, so every enumerated index
/// names a pattern the route can resolve.
class FamilyPlanEnumerator {
 public:
  FamilyPlanEnumerator(const PatternTable& table,
                       const pruning::SubgraphFamily& family);

  /// Counts from patterns_for(tg, id, num_shards, 1), the dp = 1 catalog,
  /// whatever the mesh's dp. Kept only for the benchmark's cost probe; no
  /// code under src/ may call it (use the table constructor).
  FamilyPlanEnumerator(const ir::TapGraph& tg,
                       const pruning::SubgraphFamily& family, int num_shards);

  /// Patterns enumerated per member, aligned with family.member_nodes.
  const std::vector<int>& counts() const { return counts_; }

  /// Product of per-member pattern counts.
  std::int64_t total_plans() const;

  /// Advances to the next candidate in Algorithm 2's order, a mixed-radix
  /// count with member_nodes[0] changing fastest. `member_choice` is
  /// aligned with family.member_nodes (glue members always 0). Returns
  /// false when the space is exhausted; the first call yields the
  /// all-zeros plan.
  bool next(std::vector<int>* member_choice);

  /// Restarts the enumeration.
  void reset();

 private:
  std::vector<int> counts_;
  std::vector<int> current_;
  bool exhausted_ = false;
  bool started_ = false;
};

}  // namespace tap::sharding
