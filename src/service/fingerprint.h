// Structural fingerprinting for the plan-cache subsystem (src/service).
//
// A PlanKey identifies "the planning problem": WHAT graph is being planned
// (structure only — op kinds, shapes, dtypes, topology, weight roles and
// scope-relative layout, never absolute node names, so `t5_a/...` and
// `t5_b/...` builds of the same architecture share a key) combined with
// the planning-relevant subset of TapOptions (mesh, cluster, pruning
// threshold — NOT `threads`, which is bit-identity-neutral by the ThreadPool
// contract). Two requests with equal keys are guaranteed the same
// deterministic planner output, which is what makes memoization safe.
//
// Families get their own fingerprint: TAPAS's core insight is that large
// models are dominated by repeated subgraphs, and the same T5 encoder
// block appears in the 12-layer and the 48-layer build. The whole-graph
// key differs, but the per-family key matches — so the family-level search
// result (the expensive part) is reused even on a whole-graph cache miss
// (service::CachingFamilyPolicy).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/plan_context.h"
#include "pruning/prune.h"
#include "util/hash.h"

namespace tap::service {

using Fingerprint = util::Hash128;

/// Structural fingerprint of one GraphNode: its lowered content hash
/// (op kinds, scope-relative op names, weight shapes/attrs), output spec,
/// parameter count, primary kind, weight/trainable roles, and name-scope
/// depth (pruning folds by depth, so depth is planning-relevant even
/// though the name itself is not).
std::uint64_t node_structural_hash(const ir::TapGraph& tg,
                                   ir::GraphNodeId id);

/// Whole-graph structural fingerprint: every node's structural hash plus
/// the full input topology, absorbed in deterministic id order (node ids
/// are insertion-ordered and inputs always precede consumers).
Fingerprint graph_fingerprint(const ir::TapGraph& tg);

/// Fingerprint of one SubgraphFamily's representative: member structural
/// hashes, relnames, intra-family edges (as member indices) and the output
/// specs of external producers (route_subgraph costs boundary conversions
/// by the incoming tensor's bytes). Equal family fingerprints under equal
/// option fingerprints imply an identical FamilySearchOutcome.
Fingerprint family_fingerprint(const ir::TapGraph& tg,
                               const pruning::SubgraphFamily& family);

/// The planning-relevant subset of TapOptions: mesh (num_shards,
/// dp_replicas), the full ClusterSpec and the pruning threshold.
/// Excludes `threads` — results are bit-identical at every thread count,
/// so it must not split the key space.
Fingerprint options_fingerprint(const core::TapOptions& opts);

/// Cache-key version: bump together with kPlanResponseVersion
/// (service/wire.h) when fingerprint inputs change meaning (e.g. a new
/// TapOptions field joins options_fingerprint), so old keys can never
/// alias new ones. Version 2: the per-family candidate cutoff left the
/// options.
inline constexpr std::uint32_t kPlanKeyVersion = 2;

/// The complete cache key of one plan request.
struct PlanKey {
  Fingerprint graph;
  Fingerprint options;
  /// Whether the request is a fixed-mesh auto_parallel or a full
  /// best-mesh sweep (same options, different answer).
  bool sweep_mesh = false;

  friend bool operator==(const PlanKey& a, const PlanKey& b) {
    return a.graph == b.graph && a.options == b.options &&
           a.sweep_mesh == b.sweep_mesh;
  }
  friend bool operator!=(const PlanKey& a, const PlanKey& b) {
    return !(a == b);
  }

  /// Stable 64-bit digest (shard selection, hash maps).
  std::uint64_t digest() const;

  /// Filesystem-safe hex spelling, version-prefixed — e.g.
  /// "v2-0123456789abcdef...f" names a record in the disk tier's log.
  std::string to_hex() const;
  /// The key `hex` spells, or nullopt unless it is exactly what to_hex()
  /// prints at this kPlanKeyVersion.
  static std::optional<PlanKey> from_hex(std::string_view hex);
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    return static_cast<std::size_t>(k.digest());
  }
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.digest());
  }
};

/// Builds the key for (graph, options, sweep_mesh).
PlanKey make_plan_key(const ir::TapGraph& tg, const core::TapOptions& opts,
                      bool sweep_mesh);

}  // namespace tap::service
