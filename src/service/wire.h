// The plan-serving wire protocol (ISSUE 7): how a planning problem is
// named over HTTP, and the canonical bytes a plan answer is spelled in.
//
// ModelSpec is the wire description of one planning problem — a zoo
// architecture plus the planning-relevant knobs tap_cli already exposes
// (mesh, cluster shape, deadline). It parses from the POST /plan JSON
// body or a GET /explain query string, builds the same Graph/TapOptions
// the CLI would build for the same flags, and therefore lands on the
// same PlanKey — which is what lets the CI smoke job compare server
// bytes against offline CLI bytes.
//
// plan_response_json is the determinism contract of the tier: it spells
// a TapResult using ONLY deterministic fields (key, mesh, provenance,
// by-name plan assignments, cost doubles, search statistics — never wall
// times), so for a complete plan the response bytes are a pure function
// of the PlanKey. Any shard, any transport, any cache tier: same key,
// same bytes. The net tests and the serve-smoke CI job enforce this
// byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/tap.h"
#include "graph/graph.h"
#include "service/fingerprint.h"

namespace tap::service {

/// Wire description of one planning problem. Defaults mirror tap_cli's.
struct ModelSpec {
  std::string model = "t5";  ///< t5|bert|gpt3|resnet50|resnet152|moe
  int layers = 8;
  std::int64_t classes = 1000;  ///< resnet head width
  std::int64_t batch = 16;
  int nodes = 2;  ///< cluster nodes
  int gpus = 8;   ///< GPUs per node
  /// Fixed mesh (dp x tp); 0 x 0 = automatic mesh sweep.
  int dp = 0;
  int tp = 0;
  /// Server-side latency budget; results under a tripped deadline are
  /// anytime/fallback and (like in-process) never cached.
  std::int64_t deadline_ms = 0;

  bool sweep() const { return dp <= 0 || tp <= 0; }
};

bool known_model(const std::string& model);

/// Parses the POST /plan body. Strict: unknown keys, unknown models,
/// non-positive dimensions, non-integral numbers, int fields (layers,
/// nodes, gpus, mesh) outside int, and malformed mesh values all throw
/// util::CheckError (the handler answers 400).
ModelSpec model_spec_from_json(const std::string& json);

/// Parses a GET query string ("?model=t5&layers=2&mesh=2x4&..."), same
/// strictness as the JSON form.
ModelSpec model_spec_from_query(std::string_view target);

/// Canonical JSON spelling (fixed key order) — what PlanClient sends.
std::string model_spec_to_json(const ModelSpec& spec);

/// Builds the zoo architecture the spec names (same construction as
/// tap_cli's flags).
Graph build_spec_model(const ModelSpec& spec);

/// TapOptions for the spec: cluster, mesh, deadline. `threads` is the
/// server's worker knob — bit-identity-neutral, never part of the spec.
core::TapOptions options_for_spec(const ModelSpec& spec, int threads);

/// Bump when the response layout or its planning semantics change;
/// readers check it first. Version 2: candidate statistics count each
/// mesh's own pattern catalog. Version 3: every family is searched
/// exactly (FrontierDpPolicy), so families past the old greedy cutoff
/// get better plans and exact counters.
inline constexpr int kPlanResponseVersion = 3;

/// Canonical plan-response JSON for a result planned under `key` —
/// deterministic fields only, so complete plans serialize to identical
/// bytes on every shard and transport:
///   {"version":3,"key":"v2-...","mesh":[dp,tp],
///    "provenance":"complete|anytime|fallback",
///    "plan":{...core::plan_json...},
///    "cost":{"forward_comm_s":..,"backward_comm_s":..,
///            "overlappable_comm_s":..,"comm_bytes":..,"total_s":..},
///    "stats":{"candidate_plans":..,"valid_plans":..,
///             "nodes_visited":..,"cost_queries":..}}
/// The "plan" member is core::plan_json's document, set in place (no text
/// round trip), so it dumps to exactly core::plan_to_json's bytes.
/// The bytes do not depend on which families the family cache answered:
/// the zoo-wide differential test (tests/test_delta.cpp) compares them
/// between a search through a warmed service and a cold search.
std::string plan_response_json(const ir::TapGraph& tg, const PlanKey& key,
                               const core::TapResult& result);

}  // namespace tap::service
