// The whole-graph layers every cold plan runs once per lowering or once
// per mesh — lowering, pruning, the pattern table and the backward-window
// terms — must keep what they produce while their per-node constants
// shrink: the lowered graph and the pruning digest to the values recorded
// before they were optimized, every interned pattern-table row equals
// patterns_for field by field, and window terms built from the op costs
// stored at finalize() equal backward_compute_window bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "graph/op_work.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "pruning/prune.h"
#include "sharding/pattern.h"
#include "sharding/plan.h"
#include "sharding/routing.h"
#include "util/hash.h"
#include "util/rng.h"

namespace tap {
namespace {

using util::hash_combine;
using util::hash_str;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t hash_ids(std::uint64_t h, const std::vector<std::int32_t>& ids) {
  h = hash_combine(h, ids.size());
  for (std::int32_t id : ids)
    h = hash_combine(h, static_cast<std::uint64_t>(id));
  return h;
}

std::uint64_t hash_spec(std::uint64_t h, const TensorSpec& spec) {
  h = hash_combine(h, static_cast<std::uint64_t>(spec.dtype));
  h = hash_combine(h, spec.shape.dims().size());
  for (std::int64_t d : spec.shape.dims())
    h = hash_combine(h, static_cast<std::uint64_t>(d));
  return h;
}

/// Everything lowering defines per GraphNode, in node order.
std::uint64_t graph_digest(const ir::TapGraph& tg) {
  std::uint64_t h = util::kFnvOffset;
  for (const ir::GraphNode& n : tg.nodes()) {
    h = hash_combine(h, hash_str(n.name));
    h = hash_ids(h, n.ops);
    h = hash_ids(h, n.weight_ops);
    h = hash_ids(h, n.inputs);
    h = hash_spec(h, n.output);
    h = hash_combine(h, static_cast<std::uint64_t>(n.primary_kind));
    h = hash_combine(h, static_cast<std::uint64_t>(n.params));
    h = hash_combine(h, n.fingerprint);
  }
  for (ir::GraphNodeId id : tg.cached_topo_order())
    h = hash_combine(h, static_cast<std::uint64_t>(id));
  return h;
}

/// Everything pruning defines, in family order.
std::uint64_t prune_digest(const pruning::PruneResult& pr) {
  std::uint64_t h = hash_combine(util::kFnvOffset,
                                 static_cast<std::uint64_t>(pr.fold_depth));
  h = hash_combine(h, pr.total_graph_nodes);
  for (const pruning::SubgraphFamily& f : pr.families) {
    h = hash_combine(h, hash_str(f.representative));
    h = hash_combine(h, f.instances.size());
    for (const std::string& s : f.instances) h = hash_combine(h, hash_str(s));
    h = hash_combine(h, f.relnames.size());
    for (const std::string& s : f.relnames) h = hash_combine(h, hash_str(s));
    h = hash_ids(h, f.member_nodes);
    for (const auto& ids : f.instance_nodes) h = hash_ids(h, ids);
    h = hash_combine(h, f.signature);
    h = hash_combine(h, static_cast<std::uint64_t>(f.params));
  }
  return h;
}

// Recorded with the library as it was before lowering, pruning and the
// pattern table were given string_view keys, flat edge dedup and interned
// rows. A change to any of them must leave these untouched.
const std::map<std::string, std::pair<std::string, std::string>>& golden() {
  static const std::map<std::string, std::pair<std::string, std::string>> g = {
      {"ResNet50", {"f5677ee317e43e40", "b73b8aad942fe18a"}},
      {"CLIP-Base", {"eb5f308e63e1e891", "6486892c822110cc"}},
      {"WideNet", {"5688a33e815c41bf", "95f78a9c3599b7e1"}},
      {"ViT-Huge", {"55763e02ce849ad4", "fe1cea9a1df8bf0a"}},
      {"V-MoE", {"9dbd3b62df9a07b4", "1612ac8aff6f7714"}},
      {"wav2vec 2.0", {"90c8e3264749749e", "eb645e985f62820c"}},
      {"BERT", {"d3aa0f7c78623680", "19a0946f6d8fd145"}},
      {"T5-Large", {"cd79d23a088be139", "07d0509dc041d5ff"}},
      {"GPT-3", {"cc66bfea8c5cc913", "f74e79c54f820d58"}},
      {"Switch Transformer", {"3622f307f8c63fee", "6f10abc7220d0ff6"}},
  };
  return g;
}

TEST(WholeGraphLayers, LoweringAndPruningMatchGoldenDigests) {
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    const std::string lowered = hex64(graph_digest(tg));
    const std::string pruned = hex64(prune_digest(pr));
    const auto it = golden().find(entry.model);
    ASSERT_NE(it, golden().end());
    EXPECT_EQ(lowered, it->second.first);
    EXPECT_EQ(pruned, it->second.second);
  }
}

/// Tensor-parallel sizes of a `world`-device sweep.
std::vector<int> mesh_tps(int world) {
  std::vector<int> tps;
  for (int tp = 1; tp <= world; ++tp)
    if (world % tp == 0) tps.push_back(tp);
  return tps;
}

void expect_same_pattern(const sharding::ShardingPattern& a,
                         const sharding::ShardingPattern& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.input.has_value(), b.input.has_value());
  if (a.input && b.input) {
    EXPECT_TRUE(*a.input == *b.input);
  }
  EXPECT_TRUE(a.weight == b.weight);
  EXPECT_EQ(a.output.has_value(), b.output.has_value());
  if (a.output && b.output) {
    EXPECT_TRUE(*a.output == *b.output);
  }
  EXPECT_EQ(a.forward_comm, b.forward_comm);
  EXPECT_EQ(a.forward_comm_count, b.forward_comm_count);
  EXPECT_EQ(a.backward_comm, b.backward_comm);
  EXPECT_EQ(a.backward_subject, b.backward_subject);
}

TEST(PatternTable, InternedRowsEqualPatternsFor) {
  std::size_t nodes = 0, rows = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    for (int gpus : {8, 16, 32}) {
      for (int tp : mesh_tps(gpus)) {
        const int dp = gpus / tp;
        SCOPED_TRACE("tp=" + std::to_string(tp) + " dp=" + std::to_string(dp));
        const sharding::PatternTable table(tg, tp, dp);
        for (const ir::GraphNode& n : tg.nodes()) {
          const std::vector<sharding::ShardingPattern> want =
              sharding::patterns_for(tg, n.id, tp, dp);
          const std::vector<sharding::ShardingPattern>& got = table.at(n.id);
          ASSERT_EQ(got.size(), want.size()) << n.name;
          for (std::size_t i = 0; i < want.size(); ++i)
            expect_same_pattern(got[i], want[i]);
        }
        nodes += tg.num_nodes();
        rows += table.num_rows();
      }
    }
  }
  // Repeated layers share rows: far fewer rows than nodes.
  EXPECT_LT(rows * 10, nodes);
}

TEST(WholeGraphLayers, StoredOpWorkTermsEqualBackwardComputeWindow) {
  util::Rng rng(20240611);
  int checked = 0;
  for (const models::ZooEntry& entry : models::table1_zoo()) {
    SCOPED_TRACE(entry.model);
    const Graph g = entry.build();
    const ir::TapGraph tg = ir::lower(g);
    for (const ir::GraphNode& n : tg.nodes()) {
      for (NodeId op : n.ops) {
        const OpWork want = op_work(g.node(op), g);
        ASSERT_EQ(tg.op_work(op).kind, want.kind);
        ASSERT_EQ(tg.op_work(op).flops, want.flops);
        ASSERT_EQ(tg.op_work(op).bytes, want.bytes);
      }
    }
    const pruning::PruneResult pr = pruning::prune_graph(tg);
    const cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
    for (int tp : mesh_tps(cluster.world())) {
      const int dp = cluster.world() / tp;
      const sharding::PatternTable table(tg, tp, dp);
      const cost::BackwardWindowTerms whole(tg, nullptr, tp, dp, cluster);
      for (int trial = 0; trial < 8; ++trial) {
        // A random choice per family, replayed on every instance.
        sharding::ShardingPlan plan = sharding::default_plan(tg, tp, dp);
        for (const pruning::SubgraphFamily& f : pr.families) {
          std::vector<int> choice;
          for (ir::GraphNodeId id : f.member_nodes)
            choice.push_back(
                static_cast<int>(rng.next_below(table.at(id).size())));
          sharding::apply_family_choice(f, choice, &plan);
        }
        const sharding::RoutedPlan routed =
            sharding::route_plan(tg, plan, &table);
        if (!routed.valid) continue;
        const double got = whole.window(routed, table);
        const double want = cost::backward_compute_window(tg, routed, nullptr,
                                                          tp, cluster, &table);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << got << " vs " << want;
        for (const pruning::SubgraphFamily& f : pr.families) {
          const double fam = cost::BackwardWindowTerms(tg, &f.member_nodes, tp,
                                                       dp, cluster)
                                 .window(routed, table);
          const double fam_want = cost::backward_compute_window(
              tg, routed, &f.member_nodes, tp, cluster, &table);
          EXPECT_EQ(std::memcmp(&fam, &fam_want, sizeof fam), 0);
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

}  // namespace
}  // namespace tap
