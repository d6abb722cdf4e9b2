#include "service/fingerprint.h"

#include <cstdio>
#include <unordered_map>

#include "util/strings.h"

namespace tap::service {

namespace {

using util::Hash128;
using util::hash128_combine;

std::uint64_t spec_hash(const TensorSpec& spec) {
  std::uint64_t h = util::hash_u64(static_cast<std::uint64_t>(spec.dtype));
  h = util::hash_combine(h, spec.shape.dims().size());
  for (std::int64_t d : spec.shape.dims())
    h = util::hash_combine(h, static_cast<std::uint64_t>(d));
  return h;
}

}  // namespace

std::uint64_t node_structural_hash(const ir::TapGraph& tg,
                                   ir::GraphNodeId id) {
  const ir::GraphNode& n = tg.node(id);
  std::uint64_t h = n.fingerprint;  // lowered content, scope-relative
  h = util::hash_combine(h, util::path_depth(n.name));
  h = util::hash_combine(h, static_cast<std::uint64_t>(n.primary_kind));
  h = util::hash_combine(h, static_cast<std::uint64_t>(n.params));
  h = util::hash_combine(h, spec_hash(n.output));
  h = util::hash_combine(h, n.ops.size());
  h = util::hash_combine(h, n.weight_ops.size());
  return h;
}

Fingerprint graph_fingerprint(const ir::TapGraph& tg) {
  // Per-node cumulative hashes: content + the cumulative hashes of the
  // inputs, in positional order. Inputs always precede consumers in id
  // order (TapGraph::add_node invariant), so one forward pass suffices and
  // the result is sensitive to the full wiring, not just the node multiset.
  std::vector<std::uint64_t> cumulative(tg.num_nodes(), 0);
  Hash128 fp;
  fp = hash128_combine(fp, static_cast<std::uint64_t>(tg.num_nodes()));
  for (const ir::GraphNode& n : tg.nodes()) {
    std::uint64_t h = node_structural_hash(tg, n.id);
    for (ir::GraphNodeId in : n.inputs)
      h = util::hash_combine(h,
                             cumulative[static_cast<std::size_t>(in)]);
    cumulative[static_cast<std::size_t>(n.id)] = h;
    fp = hash128_combine(fp, h);
  }
  return fp;
}

Fingerprint family_fingerprint(const ir::TapGraph& tg,
                               const pruning::SubgraphFamily& family) {
  // Member index lookup for intra-family edge encoding.
  std::unordered_map<ir::GraphNodeId, std::size_t> index;
  index.reserve(family.member_nodes.size());
  for (std::size_t i = 0; i < family.member_nodes.size(); ++i)
    index.emplace(family.member_nodes[i], i);

  Hash128 fp = hash128_combine({}, 0x66616dull);  // domain-separate ("fam")
  fp = hash128_combine(fp,
                       static_cast<std::uint64_t>(family.member_nodes.size()));
  for (std::size_t i = 0; i < family.member_nodes.size(); ++i) {
    const ir::GraphNodeId id = family.member_nodes[i];
    fp = hash128_combine(fp, util::hash_str(family.relnames[i]));
    fp = hash128_combine(fp, node_structural_hash(tg, id));
    for (ir::GraphNodeId in : tg.node(id).inputs) {
      auto it = index.find(in);
      if (it != index.end()) {
        // Intra-family edge: position is enough.
        fp = hash128_combine(fp, 0x100000000ull + it->second);
      } else {
        // Boundary edge: route_subgraph assumes the boundary layout but
        // costs conversions by the incoming tensor, so its spec matters.
        fp = hash128_combine(fp, spec_hash(tg.node(in).output));
      }
    }
  }
  return fp;
}

Fingerprint options_fingerprint(const core::TapOptions& opts) {
  Hash128 fp = hash128_combine({}, 0x6f707473ull);  // "opts"
  auto u64 = [&](std::uint64_t v) { fp = hash128_combine(fp, v); };
  auto f64 = [&](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  };

  u64(static_cast<std::uint64_t>(opts.num_shards));
  u64(static_cast<std::uint64_t>(opts.dp_replicas));
  u64(static_cast<std::uint64_t>(opts.max_plans_per_family));
  u64(static_cast<std::uint64_t>(opts.prune.min_duplicate));
  f64(opts.cost.exposed_overlap_fraction);
  f64(opts.cost.overlap_window_s);

  const cost::ClusterSpec& c = opts.cluster;
  u64(static_cast<std::uint64_t>(c.num_nodes));
  u64(static_cast<std::uint64_t>(c.gpus_per_node));
  f64(c.intra_bw);
  f64(c.inter_bw);
  f64(c.intra_latency);
  f64(c.inter_latency);
  f64(c.flops_per_gpu);
  f64(c.mem_bw);
  f64(c.gpu_memory);
  f64(c.kernel_launch_overhead);
  u64(c.node_speeds.size());
  for (double s : c.node_speeds) f64(s);
  // NOTE: opts.threads deliberately excluded — plans are bit-identical at
  // every thread count, so it must not fragment the cache. Likewise
  // deadline_ms / max_checkpoints: they change how much of the search
  // runs, not what a COMPLETE search produces, and only complete results
  // are ever cached — keying on them would let a degraded request miss a
  // perfectly good cached plan.
  return fp;
}

std::uint64_t PlanKey::digest() const {
  Hash128 h = hash128_combine(graph, options);
  h = hash128_combine(h, sweep_mesh ? 1ull : 0ull);
  return h.digest();
}

std::string PlanKey::to_hex() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "v%u-%016llx%016llx%016llx%016llx%c",
                kPlanKeyVersion,
                static_cast<unsigned long long>(graph.hi),
                static_cast<unsigned long long>(graph.lo),
                static_cast<unsigned long long>(options.hi),
                static_cast<unsigned long long>(options.lo),
                sweep_mesh ? 's' : 'f');
  return buf;
}

PlanKey make_plan_key(const ir::TapGraph& tg, const core::TapOptions& opts,
                      bool sweep_mesh) {
  PlanKey key;
  key.graph = graph_fingerprint(tg);
  core::TapOptions keyed = opts;
  if (sweep_mesh) {
    // The sweep ignores the requested mesh (it derives every
    // factorization of the cluster world); normalize so equivalent
    // requests share a key.
    keyed.num_shards = 0;
    keyed.dp_replicas = 0;
  }
  key.options = options_fingerprint(keyed);
  key.sweep_mesh = sweep_mesh;
  return key;
}

}  // namespace tap::service
