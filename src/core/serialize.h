// Plan serialization: persist a derived sharding plan and re-apply it to a
// freshly lowered graph. Searching once per architecture and shipping the
// plan with the training job is the intended production workflow; plans
// reference GraphNodes and patterns *by name*, so any identically-built
// model accepts them regardless of internal ids.
//
// Format: a single compact JSON object,
//   {"mesh":[dp,tp],"assignments":{"<graphnode name>":"<pattern name>",...}}
// Only weighted GraphNodes are listed (glue always follows). Plans and
// plan records are written and read through util::JsonValue, the repo's
// one JSON codec; a plan reads back from any valid JSON spelling
// (whitespace and key order are free). The reader throws CheckError on
// malformed input, a missing, unknown or duplicate key, unknown nodes, or
// patterns inapplicable under the given mesh.
#pragma once

#include <string>

#include "core/plan_context.h"
#include "sharding/plan.h"
#include "util/json.h"

namespace tap::core {

/// The plan document for `plan` against `tg`: {"mesh":..,"assignments":..}.
util::JsonValue plan_json(const ir::TapGraph& tg,
                          const sharding::ShardingPlan& plan);

/// plan_json(tg, plan).dump().
std::string plan_to_json(const ir::TapGraph& tg,
                         const sharding::ShardingPlan& plan);

/// Resolves a plan document against `tg`. Unlisted weighted nodes get
/// pattern 0 (the data-parallel/replicate default).
sharding::ShardingPlan plan_from_json(const ir::TapGraph& tg,
                                      const util::JsonValue& doc);

/// Parses `json` and resolves it as above.
sharding::ShardingPlan plan_from_json(const ir::TapGraph& tg,
                                      const std::string& json);

// ---------------------------------------------------------------------------
// PlanRecord — the on-disk payload of the service plan cache
// ---------------------------------------------------------------------------
//
// A PlanRecord captures everything the PlannerService must return on a
// cache hit to be bit-identical to a cold search: the pattern choices, the
// final cost, the search statistics, and the per-pass timings of the run
// that produced the plan. Unlike the by-name plan JSON above (which is
// meant to be hand-editable and applied across rebuilds), the record
// stores pattern choices positionally (one index per GraphNodeId) — a
// cache hit already guarantees a structurally identical graph with
// identical deterministic node ids, and positional storage keeps renamed
// but structurally equal graphs servable. Doubles are written with 17
// significant digits (infinity as inf), so every value round-trips
// exactly. The record is one compact JSON object:
//   {"version":2,"mesh":[dp,tp],"choice":[..],
//    "cost":[forward_s,backward_s,overlappable_s,comm_bytes],
//    "stats":[candidate_plans,valid_plans,nodes_visited,cost_queries],
//    "timings":[["<pass>",seconds],..],"search_seconds":..}
//
// The format is versioned: `version` is the FIRST key and readers reject
// any mismatch before touching the rest of the payload, so cache files
// written by older code are discarded, never misinterpreted. The other
// keys must follow in exactly the order above.

/// Bump whenever PlanRecord's layout OR any planning semantics change
/// (pattern catalog, cost model, search order) — stale plans must miss.
/// Version 2: compact JSON written through util::JsonValue. Version 3:
/// the search enumerates each mesh's own pattern catalog (candidate
/// statistics changed).
inline constexpr int kPlanRecordVersion = 3;

struct PlanRecord {
  sharding::ShardingPlan plan;
  cost::PlanCost cost;
  SearchStats stats;
  std::vector<PassTiming> timings;
  /// Wall time of the cold search that produced the plan.
  double search_seconds = 0.0;
};

/// Serializes `record` (validated against `tg`: one choice per GraphNode).
std::string plan_record_to_json(const ir::TapGraph& tg,
                                const PlanRecord& record);

/// Parses a record and validates it against `tg`: version must equal
/// kPlanRecordVersion, the choice vector must cover every GraphNode, and
/// every index must select an applicable pattern under the record's mesh.
/// Throws CheckError otherwise.
PlanRecord plan_record_from_json(const ir::TapGraph& tg,
                                 const std::string& json);

}  // namespace tap::core
