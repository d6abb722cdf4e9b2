// Plan serialization: persist a derived sharding plan and re-apply it to a
// freshly lowered graph. Searching once per architecture and shipping the
// plan with the training job is the intended production workflow; plans
// reference GraphNodes and patterns *by name*, so any identically-built
// model accepts them regardless of internal ids.
//
// Format: a single compact JSON object,
//   {"mesh":[dp,tp],"assignments":{"<graphnode name>":"<pattern name>",...}}
// Only weighted GraphNodes are listed (glue always follows). Plans are
// written and read through util::JsonValue, the repo's one JSON codec; a
// plan reads back from any valid JSON spelling (whitespace and key order
// are free). The reader throws CheckError on malformed input, a missing,
// unknown or duplicate key, unknown nodes, or patterns inapplicable under
// the given mesh. The plan travels inside the /plan response
// (service/wire.h), which the plan cache's disk tier stores and tap_cli
// writes with --plan-json and reads with --load-plan.
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

}  // namespace tap::core
