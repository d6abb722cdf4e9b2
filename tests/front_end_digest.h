// Digests of the front end's output (ir::lower and pruning::prune_graph),
// for tests that pin those bytes across rewrites of the two functions.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ir/lowering.h"
#include "models/models.h"
#include "pruning/prune.h"
#include "service/wire.h"
#include "util/hash.h"

namespace tap::testing {

/// An order-dependent running digest.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    h_ = util::hash_combine(h_, v);
    return *this;
  }
  Digest& add_i(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add_str(std::string_view s) { return add(util::hash_str(s)); }
  Digest& add_f(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  template <class Ints>
  Digest& add_ints(const Ints& xs) {
    add(xs.size());
    for (auto x : xs) add_i(static_cast<std::int64_t>(x));
    return *this;
  }
  Digest& add_spec(const TensorSpec& s) {
    add_ints(s.shape.dims());
    return add(static_cast<std::uint64_t>(s.dtype));
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = util::kFnvOffset;
};

/// Everything a finished TapGraph exposes: per node its name, member and
/// weight ops, inputs, primary kind, params, output spec and fingerprint,
/// then the cached topological order, the op classes and their work, the
/// weight ops, the pattern rows and the route bytes.
inline std::string tap_graph_digest(const ir::TapGraph& tg) {
  Digest d;
  d.add_str(tg.name()).add(tg.num_nodes()).add(tg.num_source_ops());
  for (const ir::GraphNode& n : tg.nodes()) {
    d.add_i(n.id).add_str(n.name).add_ints(n.ops).add_ints(n.weight_ops);
    d.add_ints(n.inputs).add(static_cast<std::uint64_t>(n.primary_kind));
    d.add_i(n.params).add_spec(n.output).add(n.fingerprint);
  }
  d.add_ints(tg.cached_topo_order());
  for (const ir::GraphNode& n : tg.nodes()) {
    d.add_ints(tg.op_classes(n.id));
    for (const ir::WeightOp& w : tg.weights(n.id)) {
      d.add_i(w.bytes).add(w.shape).add(static_cast<std::uint64_t>(w.kind));
      d.add(w.trainable).add(w.primary).add_ints(tg.weight_shape(w).dims());
    }
    const ir::RouteBytes& b = tg.route_bytes(n.id);
    d.add_i(b.output).add_i(b.weight_grad).add_i(b.secondary_grad);
    d.add_i(b.primary_grad);
  }
  d.add(tg.num_work_classes());
  for (std::uint32_t c = 0; c < tg.num_work_classes(); ++c) {
    const OpWork& w = tg.class_work(c);
    d.add(static_cast<std::uint64_t>(w.kind)).add_f(w.flops).add_i(w.bytes);
  }
  d.add_ints(tg.pattern_rows());
  return d.hex();
}

/// fold_depth, then per family its representative, instances, relnames,
/// member and instance nodes, signature and params.
inline std::string prune_digest(const pruning::PruneResult& pr) {
  Digest d;
  d.add_i(pr.fold_depth).add(pr.total_graph_nodes).add(pr.families.size());
  for (const pruning::SubgraphFamily& f : pr.families) {
    d.add_str(f.representative).add(f.instances.size());
    for (const std::string& s : f.instances) d.add_str(s);
    d.add(f.relnames.size());
    for (const std::string& s : f.relnames) d.add_str(s);
    d.add_ints(f.member_nodes).add(f.instance_nodes.size());
    for (const auto& inst : f.instance_nodes) d.add_ints(inst);
    d.add(f.signature).add_i(f.params);
  }
  return d.hex();
}

/// One source graph of the front-end zoo.
struct FrontEndModel {
  std::string name;
  Graph graph;
};

/// The seven plan_cold models (2x8 V100 specs), the ten Table 1 rows and
/// T5-192L.
inline std::vector<FrontEndModel> front_end_zoo() {
  std::vector<FrontEndModel> zoo;
  struct Row {
    const char* model;
    int layers;
  };
  for (const Row& r : {Row{"t5", 8}, Row{"t5", 24}, Row{"t5", 48},
                       Row{"bert", 24}, Row{"gpt3", 8}, Row{"moe", 8},
                       Row{"resnet50", 50}}) {
    service::ModelSpec spec;
    spec.model = r.model;
    spec.layers = r.layers;
    zoo.push_back({std::string(r.model) + "_" + std::to_string(r.layers),
                   service::build_spec_model(spec)});
  }
  for (const models::ZooEntry& e : models::table1_zoo())
    zoo.push_back({e.model, e.build()});
  zoo.push_back({"t5_192",
                 models::build_transformer(models::t5_with_layers(192))});
  return zoo;
}

}  // namespace tap::testing
