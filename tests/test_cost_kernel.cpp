// The batched cost kernels' contract (ISSUE 6): the scalar reference
// kernel replays cost::comm_cost bit-for-bit, the AVX2 kernel matches the
// scalar reference bit-for-bit, and therefore swapping kernels never
// changes a cost double, a plan byte, or a report. Three layers of proof:
//
//   * differential fuzzing over randomized CommEventBatches and clusters
//     (including inf / subnormal / zero bandwidths and latencies — the
//     cluster parameters stay nonnegative, which is what licenses the
//     vector kernel's masked +0.0 contributions);
//   * comm_cost == batch(scalar) == batch(AVX2) on real routed plans;
//   * a full-zoo end-to-end sweep: auto_parallel under the forced scalar
//     kernel at threads=1 vs the AVX2 kernel at threads=4 must produce
//     byte-identical plans and bit-identical costs.
#include "cost/comm_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/serialize.h"
#include "core/tap.h"
#include "cost/cost_model.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "sharding/enumerate.h"
#include "sharding/routing.h"
#include "util/rng.h"

namespace tap::cost {
namespace {

using sharding::Collective;
using sharding::CommEvent;
using sharding::RoutedPlan;

bool avx2_available() {
  return avx2_kernel_compiled() &&
         active_cost_kernel() == CostKernel::kAvx2;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// EXPECT bitwise equality with a readable failure message.
void expect_bits_eq(double a, double b, const char* what, int lane) {
  EXPECT_EQ(bits(a), bits(b))
      << what << " lane " << lane << ": " << a << " vs " << b;
}

void expect_cost_bits_eq(const PlanCost& a, const PlanCost& b, int lane) {
  expect_bits_eq(a.forward_comm_s, b.forward_comm_s, "forward", lane);
  expect_bits_eq(a.backward_comm_s, b.backward_comm_s, "backward", lane);
  expect_bits_eq(a.overlappable_comm_s, b.overlappable_comm_s, "overlap",
                 lane);
  EXPECT_EQ(a.comm_bytes, b.comm_bytes) << "bytes lane " << lane;
}

CommEvent random_event(util::Rng& rng) {
  static const Collective kKinds[] = {
      Collective::kNone,       Collective::kAllReduce,
      Collective::kAllGather,  Collective::kReduceScatter,
      Collective::kAllToAll,   Collective::kBroadcast,
  };
  CommEvent e;
  e.kind = kKinds[rng.next_below(6)];
  // Bytes span empty through multi-GB; a few lanes get 0/1 edge sizes.
  switch (rng.next_below(4)) {
    case 0:
      e.bytes = static_cast<std::int64_t>(rng.next_below(3));  // 0..2
      break;
    case 1:
      e.bytes = static_cast<std::int64_t>(rng.next_below(1 << 20));
      break;
    default:
      e.bytes = static_cast<std::int64_t>(rng.next_below(1ull << 33));
      break;
  }
  e.count = static_cast<int>(rng.next_below(4)) + 1;
  e.group = static_cast<int>(rng.next_below(66));  // 0 = "whole world"
  e.phase = rng.next_below(2) == 0 ? CommEvent::Phase::kForward
                                   : CommEvent::Phase::kBackward;
  e.cross_node = rng.next_below(2) == 0;
  e.overlappable = rng.next_below(3) == 0;
  return e;
}

/// Random cluster with nonnegative rates: ordinary magnitudes plus the
/// inf / subnormal / zero edges the kernels must agree on.
ClusterSpec random_cluster(util::Rng& rng) {
  auto rate = [&rng](double lo, double hi) {
    switch (rng.next_below(8)) {
      case 0:
        return 0.0;
      case 1:
        return std::numeric_limits<double>::infinity();
      case 2:
        return std::numeric_limits<double>::denorm_min();
      default:
        return rng.uniform(lo, hi);
    }
  };
  ClusterSpec c;
  c.num_nodes = static_cast<int>(rng.next_below(4)) + 1;
  c.gpus_per_node = static_cast<int>(rng.next_below(8)) + 1;
  c.intra_bw = rate(1e6, 1e12);
  c.inter_bw = rate(1e6, 1e11);
  c.intra_latency = rate(0.0, 1e-3);
  c.inter_latency = rate(0.0, 1e-2);
  return c;
}

CostOptions random_cost_options(util::Rng& rng) {
  CostOptions o;
  if (rng.next_below(2) == 0) {
    o.overlap_window_s = rng.uniform(0.0, 2.0);  // window mode
  } else {
    o.overlap_window_s = -1.0;  // fraction mode
    o.exposed_overlap_fraction = rng.uniform(0.0, 1.0);
  }
  return o;
}

RoutedPlan random_routed(util::Rng& rng, std::size_t max_events) {
  RoutedPlan rp;
  rp.valid = true;
  const std::size_t n = rng.next_below(max_events + 1);
  for (std::size_t i = 0; i < n; ++i)
    rp.comms.push_back(random_event(rng));
  return rp;
}

// ---------------------------------------------------------------------------
// Differential fuzzing
// ---------------------------------------------------------------------------

TEST(CostKernel, FuzzScalarKernelMatchesCommCostBitwise) {
  util::Rng rng(0x7a9a5u);
  CommEventBatch batch;
  for (int round = 0; round < 300; ++round) {
    batch.reset();
    const ClusterSpec cluster = random_cluster(rng);
    const int lanes = static_cast<int>(rng.next_below(kCostBatchWidth)) + 1;
    std::vector<RoutedPlan> plans;
    std::vector<CostOptions> opts;
    std::vector<int> shards;
    for (int l = 0; l < lanes; ++l) {
      plans.push_back(random_routed(rng, 24));
      opts.push_back(random_cost_options(rng));
      shards.push_back(static_cast<int>(rng.next_below(64)) + 1);
      batch.add_candidate(plans.back(), shards.back(), opts.back());
    }
    PlanCost out[kCostBatchWidth];
    comm_cost_batch_with(CostKernel::kScalar, batch, cluster, out);
    for (int l = 0; l < lanes; ++l) {
      const PlanCost ref =
          comm_cost(plans[static_cast<std::size_t>(l)],
                    shards[static_cast<std::size_t>(l)], cluster,
                    opts[static_cast<std::size_t>(l)]);
      expect_cost_bits_eq(ref, out[l], l);
    }
  }
}

TEST(CostKernel, FuzzAvx2MatchesScalarBitwise) {
  if (!avx2_kernel_compiled()) {
    GTEST_SKIP() << "AVX2 kernel not compiled into this binary";
  }
  util::Rng rng(0xbadc0deu);
  CommEventBatch batch;
  for (int round = 0; round < 400; ++round) {
    batch.reset();
    const ClusterSpec cluster = random_cluster(rng);
    const int lanes = static_cast<int>(rng.next_below(kCostBatchWidth)) + 1;
    for (int l = 0; l < lanes; ++l) {
      batch.add_candidate(random_routed(rng, 24),
                          static_cast<int>(rng.next_below(64)) + 1,
                          random_cost_options(rng));
    }
    PlanCost scalar_out[kCostBatchWidth];
    PlanCost avx2_out[kCostBatchWidth];
    comm_cost_batch_with(CostKernel::kScalar, batch, cluster, scalar_out);
    comm_cost_batch_with(CostKernel::kAvx2, batch, cluster, avx2_out);
    for (int l = 0; l < lanes; ++l)
      expect_cost_bits_eq(scalar_out[l], avx2_out[l], l);
  }
}

TEST(CostKernel, EmptyBatchAndEmptyLanesCostZero) {
  CommEventBatch batch;
  batch.reset();
  EXPECT_TRUE(batch.empty());
  // An event-free candidate is a legal lane costing exactly zero.
  RoutedPlan empty;
  empty.valid = true;
  batch.add_candidate(empty, 8, {});
  PlanCost out[kCostBatchWidth];
  for (CostKernel k : {CostKernel::kScalar, CostKernel::kAvx2}) {
    if (k == CostKernel::kAvx2 && !avx2_kernel_compiled()) continue;
    comm_cost_batch_with(k, batch, ClusterSpec{}, out);
    EXPECT_EQ(bits(out[0].forward_comm_s), bits(0.0));
    EXPECT_EQ(bits(out[0].backward_comm_s), bits(0.0));
    EXPECT_EQ(out[0].comm_bytes, 0);
  }
}

// ---------------------------------------------------------------------------
// Batch mechanics: lane padding, growth, reuse
// ---------------------------------------------------------------------------

TEST(CostKernel, BatchReuseAcrossRoundsStaysBitIdentical) {
  // Rounds deliberately alternate deep and shallow lanes so stale slots
  // from the previous round would poison the result if the fill did not
  // rewrite every exposed slot.
  util::Rng rng(0x5eedu);
  CommEventBatch batch;
  const ClusterSpec cluster = ClusterSpec::v100_cluster(2);
  const std::size_t depths[] = {40, 1, 0, 17, 3, 40, 2, 9};
  for (int round = 0; round < 12; ++round) {
    batch.reset();
    std::vector<RoutedPlan> plans;
    std::vector<CostOptions> opts;
    const int lanes =
        ((round % kCostBatchWidth) + 1);  // 1..8 lanes, varying
    for (int l = 0; l < lanes; ++l) {
      RoutedPlan rp;
      rp.valid = true;
      const std::size_t depth =
          depths[static_cast<std::size_t>((round + l) % 8)];
      for (std::size_t i = 0; i < depth; ++i)
        rp.comms.push_back(random_event(rng));
      plans.push_back(std::move(rp));
      opts.push_back(random_cost_options(rng));
      batch.add_candidate(plans.back(), 16, opts.back());
    }
    EXPECT_EQ(batch.lanes(), lanes);
    PlanCost out[kCostBatchWidth];
    comm_cost_batch_with(CostKernel::kScalar, batch, cluster, out);
    PlanCost vec[kCostBatchWidth];
    if (avx2_kernel_compiled()) {
      comm_cost_batch_with(CostKernel::kAvx2, batch, cluster, vec);
    }
    for (int l = 0; l < lanes; ++l) {
      const PlanCost ref = comm_cost(plans[static_cast<std::size_t>(l)], 16,
                                     cluster,
                                     opts[static_cast<std::size_t>(l)]);
      expect_cost_bits_eq(ref, out[l], l);
      if (avx2_kernel_compiled()) expect_cost_bits_eq(out[l], vec[l], l);
    }
  }
}

TEST(CostKernel, DispatchReportsConsistentKernel) {
  const CostKernel active = active_cost_kernel();
  if (!avx2_kernel_compiled()) {
    EXPECT_EQ(active, CostKernel::kScalar);
  }
  EXPECT_STREQ(cost_kernel_name(CostKernel::kScalar), "scalar");
  EXPECT_STREQ(cost_kernel_name(CostKernel::kAvx2), "avx2");
  EXPECT_EQ(cost_kernel_width(CostKernel::kScalar), 1);
  EXPECT_EQ(cost_kernel_width(CostKernel::kAvx2), kCostBatchWidth);

  set_cost_kernel_for_testing(CostKernel::kScalar);
  EXPECT_EQ(active_cost_kernel(), CostKernel::kScalar);
  set_cost_kernel_for_testing(std::nullopt);
  EXPECT_EQ(active_cost_kernel(), active);
}

// ---------------------------------------------------------------------------
// Routing-buffer reuse (the score() double-route fix)
// ---------------------------------------------------------------------------

TEST(CostKernel, RouteIntoReusedScratchMatchesFreshRoute) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  sharding::PatternTable table(tg, 8, 1);
  sharding::ShardingPlan plan = sharding::default_plan(tg, 8);

  sharding::RoutingScratch scratch;
  sharding::RoutedPlan reused;
  // Alternate whole-graph and per-boundary routes through ONE scratch;
  // every result must match a fresh, scratch-free route.
  const std::vector<ir::GraphNodeId> all = tg.cached_topo_order();
  for (int round = 0; round < 3; ++round) {
    sharding::route_plan_into(tg, plan, &table, &scratch, &reused);
    sharding::RoutedPlan fresh = sharding::route_plan(tg, plan, &table);
    ASSERT_EQ(reused.valid, fresh.valid) << fresh.error;
    ASSERT_EQ(reused.comms.size(), fresh.comms.size());
    for (std::size_t i = 0; i < fresh.comms.size(); ++i) {
      EXPECT_EQ(reused.comms[i].kind, fresh.comms[i].kind);
      EXPECT_EQ(reused.comms[i].bytes, fresh.comms[i].bytes);
      EXPECT_EQ(reused.comms[i].group, fresh.comms[i].group);
      EXPECT_EQ(reused.comms[i].node, fresh.comms[i].node);
    }
    EXPECT_EQ(reused.output_spec, fresh.output_spec);
    EXPECT_EQ(reused.pattern_index, fresh.pattern_index);

    sharding::route_subgraph_into(tg, plan, sharding::SubgraphScope(tg, all),
                                  sharding::ShardSpec::split(0), &table,
                                  &scratch, &reused);
    sharding::RoutedPlan fresh_sub = sharding::route_subgraph(
        tg, plan, all, sharding::ShardSpec::split(0), &table);
    ASSERT_EQ(reused.valid, fresh_sub.valid);
    EXPECT_EQ(reused.comms.size(), fresh_sub.comms.size());
    EXPECT_EQ(reused.output_spec, fresh_sub.output_spec);
  }
}

// ---------------------------------------------------------------------------
// End-to-end bit identity across the zoo
// ---------------------------------------------------------------------------

class ZooKernelIdentity : public ::testing::TestWithParam<int> {};

TEST_P(ZooKernelIdentity, ScalarAndAvx2PlansAreByteIdentical) {
  if (!avx2_available()) {
    GTEST_SKIP() << "AVX2 kernel unavailable (binary or CPU)";
  }
  const models::ZooEntry entry =
      models::table1_zoo()[static_cast<std::size_t>(GetParam())];
  SCOPED_TRACE(entry.model);
  Graph g = entry.build();
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;

  // Forced scalar at threads=1 vs AVX2 at threads=4: one comparison
  // covers both the kernel swap and the thread count. Any divergence in
  // a single cost bit would surface as a different plan byte or cost.
  set_cost_kernel_for_testing(CostKernel::kScalar);
  opts.threads = 1;
  const core::TapResult scalar_r = core::auto_parallel(tg, opts);
  set_cost_kernel_for_testing(CostKernel::kAvx2);
  opts.threads = 4;
  const core::TapResult avx2_r = core::auto_parallel(tg, opts);
  set_cost_kernel_for_testing(std::nullopt);

  ASSERT_TRUE(scalar_r.routed.valid) << scalar_r.routed.error;
  ASSERT_TRUE(avx2_r.routed.valid) << avx2_r.routed.error;
  EXPECT_EQ(core::plan_to_json(tg, scalar_r.best_plan),
            core::plan_to_json(tg, avx2_r.best_plan));
  expect_cost_bits_eq(scalar_r.cost, avx2_r.cost, 0);
  EXPECT_EQ(scalar_r.candidate_plans, avx2_r.candidate_plans);
  EXPECT_EQ(scalar_r.valid_plans, avx2_r.valid_plans);
  EXPECT_EQ(scalar_r.cost_queries, avx2_r.cost_queries);
}

std::string zoo_kernel_test_name(const ::testing::TestParamInfo<int>& info) {
  std::string name = models::table1_zoo()[static_cast<std::size_t>(
                         info.param)]
                         .model;
  std::string out;
  for (char c : name)
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllTable1Models, ZooKernelIdentity,
                         ::testing::Range(0, 10), zoo_kernel_test_name);

}  // namespace
}  // namespace tap::cost
