// Incremental replanning through the family cache: an edited model (one
// more block, a resized vocabulary, a new hidden size) planned by a
// service that already planned the base model reuses every family outcome
// the two share, and the result is BYTE-identical to a cold search: same
// plan JSON, same cost, same report, same wire response, at 1 thread and
// at N.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "report/report.h"
#include "service/planner_service.h"
#include "service/wire.h"

namespace tap::service {
namespace {

core::TapOptions small_cluster_opts() {
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  opts.threads = 1;
  return opts;
}

void expect_results_identical(const core::TapResult& a,
                              const core::TapResult& b) {
  EXPECT_EQ(a.best_plan.num_shards, b.best_plan.num_shards);
  EXPECT_EQ(a.best_plan.dp_replicas, b.best_plan.dp_replicas);
  EXPECT_EQ(a.best_plan.choice, b.best_plan.choice);
  EXPECT_EQ(a.cost.forward_comm_s, b.cost.forward_comm_s);
  EXPECT_EQ(a.cost.backward_comm_s, b.cost.backward_comm_s);
  EXPECT_EQ(a.cost.overlappable_comm_s, b.cost.overlappable_comm_s);
  EXPECT_EQ(a.cost.comm_bytes, b.cost.comm_bytes);
  EXPECT_EQ(a.candidate_plans, b.candidate_plans);
  EXPECT_EQ(a.valid_plans, b.valid_plans);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.cost_queries, b.cost_queries);
  EXPECT_TRUE(a.routed.valid);
  EXPECT_TRUE(b.routed.valid);
  EXPECT_EQ(a.routed.pattern_index, b.routed.pattern_index);
  EXPECT_EQ(a.routed.total_comm_bytes(), b.routed.total_comm_bytes());
}

// ---------------------------------------------------------------------------
// Incremental replanning through the service
// ---------------------------------------------------------------------------

TEST(IncrementalReplan, SweepWarmStartAcrossMeshes) {
  core::TapOptions opts = small_cluster_opts();
  Graph base_g = models::build_transformer(models::t5_with_layers(1));
  Graph edited_g = models::build_transformer(models::t5_with_layers(2));
  ir::TapGraph base = ir::lower(base_g);
  ir::TapGraph edited = ir::lower(edited_g);
  const core::TapResult cold = core::auto_parallel_best_mesh(edited, opts);

  ServiceOptions sopts;
  sopts.request_threads = 1;
  PlannerService svc(sopts);
  svc.plan({&base, opts, true});
  const std::uint64_t hits_before = svc.stats().family_hits;
  const core::TapResult warm = svc.plan({&edited, opts, true});

  // The sweep reuses the base model's family outcomes across its meshes.
  expect_results_identical(cold, warm);
  EXPECT_GT(svc.stats().family_hits, hits_before);
  EXPECT_EQ(core::plan_to_json(edited, cold.best_plan),
            core::plan_to_json(edited, warm.best_plan));
}

// ---------------------------------------------------------------------------
// Zoo-wide differential: warmed family cache == cold, byte for byte
// ---------------------------------------------------------------------------

struct Perturbation {
  const char* label;
  std::function<Graph()> build;
  /// Edits that keep weighted families in common MUST hit the family
  /// cache; a d_model change shares nothing and plans effectively cold.
  bool expect_reuse;
};

struct DifferentialCase {
  const char* label;
  std::function<Graph()> base;
  std::vector<Perturbation> edits;
};

std::vector<DifferentialCase> differential_zoo() {
  std::vector<DifferentialCase> zoo;
  {
    DifferentialCase c;
    c.label = "t5";
    c.base = [] {
      return models::build_transformer(models::t5_with_layers(2));
    };
    c.edits = {
        {"add_block",
         [] { return models::build_transformer(models::t5_with_layers(3)); },
         true},
        {"resize_vocab",
         [] {
           models::TransformerConfig cfg = models::t5_with_layers(2);
           cfg.vocab = 32256;
           return models::build_transformer(cfg);
         },
         true},
        {"change_hidden_dim",
         [] {
           models::TransformerConfig cfg = models::t5_with_layers(2);
           cfg.d_model = 1280;
           return models::build_transformer(cfg);
         },
         false},
    };
    zoo.push_back(std::move(c));
  }
  {
    DifferentialCase c;
    c.label = "moe";
    auto moe = [](int layers, std::int64_t vocab, std::int64_t d_model) {
      models::MoeConfig cfg = models::widenet();
      cfg.num_layers = layers;
      cfg.vocab = vocab;
      cfg.d_model = d_model;
      return models::build_moe_transformer(cfg);
    };
    c.base = [moe] { return moe(2, 32000, 768); };
    c.edits = {
        {"add_block", [moe] { return moe(3, 32000, 768); }, true},
        {"resize_vocab", [moe] { return moe(2, 32256, 768); }, true},
        // 960 keeps 12 heads at 80 dims each.
        {"change_hidden_dim", [moe] { return moe(2, 32000, 960); }, false},
    };
    zoo.push_back(std::move(c));
  }
  return zoo;
}

void run_differential(const DifferentialCase& c, int threads) {
  core::TapOptions opts = small_cluster_opts();
  opts.threads = threads;
  Graph base_g = c.base();
  ir::TapGraph base_tg = ir::lower(base_g);

  ServiceOptions sopts;
  sopts.request_threads = 1;
  PlannerService svc(sopts);
  svc.plan({&base_tg, opts, false});

  for (const Perturbation& edit : c.edits) {
    SCOPED_TRACE(std::string(c.label) + "/" + edit.label +
                 "/threads=" + std::to_string(threads));
    Graph g = edit.build();
    ir::TapGraph tg = ir::lower(g);

    const core::TapResult cold = core::auto_parallel(tg, opts);
    const std::uint64_t hits_before = svc.stats().family_hits;
    const core::TapResult warm = svc.plan({&tg, opts, false});

    EXPECT_TRUE(warm.provenance.complete());
    if (edit.expect_reuse) {
      EXPECT_GT(svc.stats().family_hits, hits_before);
    }
    expect_results_identical(cold, warm);

    // The byte-for-byte contract: every serialized artifact of the plan
    // must be indistinguishable from the cold search's.
    EXPECT_EQ(core::plan_to_json(tg, cold.best_plan),
              core::plan_to_json(tg, warm.best_plan));
    const PlanKey key = svc.key_for({&tg, opts, false});
    EXPECT_EQ(plan_response_json(tg, key, cold),
              plan_response_json(tg, key, warm));
    EXPECT_EQ(report::to_json(report::build_report(tg, cold, opts)),
              report::to_json(report::build_report(tg, warm, opts)));
  }
}

TEST(IncrementalReplan, ZooDifferentialByteIdenticalSingleThread) {
  for (const DifferentialCase& c : differential_zoo()) run_differential(c, 1);
}

TEST(IncrementalReplan, ZooDifferentialByteIdenticalMultiThread) {
  for (const DifferentialCase& c : differential_zoo()) run_differential(c, 4);
}

}  // namespace
}  // namespace tap::service
