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

/// The per-member counts are those of patterns_for(tg, id, num_shards) —
/// its dp_replicas = 1 catalog — at every mesh. A dp > 1 PatternTable can
/// differ by the batch-split "dp" pattern: it lacks it when the batch
/// divides by tp but not by dp·tp (the extra index fails to route and
/// counts as an invalid candidate), and at tp = 1 it has it where the
/// dp = 1 catalog does not (its last pattern is never enumerated).
/// Changing the counts would change candidate statistics, which are part
/// of the plan bytes.
class FamilyPlanEnumerator {
 public:
  FamilyPlanEnumerator(const ir::TapGraph& tg,
                       const pruning::SubgraphFamily& family, int num_shards);

  /// The same counts, read from `table` wherever its catalog is the
  /// dp_replicas = 1 one (dp = 1 tables, unweighted members); only
  /// weighted members under a dp > 1 table call patterns_for.
  FamilyPlanEnumerator(const PatternTable& table, const ir::TapGraph& tg,
                       const pruning::SubgraphFamily& family);

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
