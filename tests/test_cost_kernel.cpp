// CommEventBatch / comm_cost_batch mechanics: every lane of a batch costs
// exactly what cost::comm_cost gives for the same route, bit for bit,
// including event-free lanes and batches refilled after reset(), where a
// lane's buffers still hold a previous round's (deeper or shallower)
// route.
#include "cost/comm_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace tap::cost {
namespace {

using sharding::Collective;
using sharding::CommEvent;
using sharding::RoutedPlan;

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_cost_bits_eq(const PlanCost& a, const PlanCost& b, int lane) {
  EXPECT_EQ(bits(a.forward_comm_s), bits(b.forward_comm_s))
      << "forward lane " << lane;
  EXPECT_EQ(bits(a.backward_comm_s), bits(b.backward_comm_s))
      << "backward lane " << lane;
  EXPECT_EQ(bits(a.overlappable_comm_s), bits(b.overlappable_comm_s))
      << "overlap lane " << lane;
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
  e.bytes = static_cast<std::int64_t>(rng.next_below(1ull << 33));
  e.count = static_cast<int>(rng.next_below(4)) + 1;
  // A routed event's group is at least 2 (the router drops smaller ones).
  e.group = 2 + static_cast<int>(rng.next_below(64));
  e.phase = rng.next_below(2) == 0 ? CommEvent::Phase::kForward
                                   : CommEvent::Phase::kBackward;
  e.cross_node = rng.next_below(2) == 0;
  e.overlappable = rng.next_below(3) == 0;
  return e;
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

TEST(CostKernel, EmptyBatchAndEmptyLanesCostZero) {
  CommEventBatch batch;
  batch.reset();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.lanes(), 0);
  // An event-free candidate is a legal lane costing exactly zero.
  RoutedPlan empty;
  empty.valid = true;
  empty.num_shards = 8;
  batch.add_candidate(&empty, {});
  EXPECT_EQ(batch.lanes(), 1);
  PlanCost out[kCostBatchWidth];
  comm_cost_batch(batch, ClusterSpec{}, out);
  EXPECT_EQ(bits(out[0].forward_comm_s), bits(0.0));
  EXPECT_EQ(bits(out[0].backward_comm_s), bits(0.0));
  EXPECT_EQ(bits(out[0].overlappable_comm_s), bits(0.0));
  EXPECT_EQ(out[0].comm_bytes, 0);
}

TEST(CostKernel, BatchReuseAcrossRoundsStaysBitIdentical) {
  // Rounds alternate deep and shallow lanes, so a lane whose buffers
  // kept a previous round's events would cost differently from the
  // route it was given.
  util::Rng rng(0x5eedu);
  CommEventBatch batch;
  const ClusterSpec cluster = ClusterSpec::v100_cluster(2);
  const std::size_t depths[] = {40, 1, 0, 17, 3, 40, 2, 9};
  for (int round = 0; round < 12; ++round) {
    batch.reset();
    std::vector<RoutedPlan> plans;
    std::vector<CostOptions> opts;
    const int lanes = (round % kCostBatchWidth) + 1;  // 1..8 lanes
    for (int l = 0; l < lanes; ++l) {
      RoutedPlan rp;
      rp.valid = true;
      rp.num_shards = 16;
      const std::size_t depth =
          depths[static_cast<std::size_t>((round + l) % 8)];
      for (std::size_t i = 0; i < depth; ++i)
        rp.comms.push_back(random_event(rng));
      plans.push_back(rp);
      opts.push_back(random_cost_options(rng));
      batch.add_candidate(&rp, opts.back());
    }
    EXPECT_EQ(batch.lanes(), lanes);
    EXPECT_EQ(batch.full(), lanes == kCostBatchWidth);
    PlanCost out[kCostBatchWidth];
    comm_cost_batch(batch, cluster, out);
    for (int l = 0; l < lanes; ++l) {
      const auto i = static_cast<std::size_t>(l);
      EXPECT_EQ(batch.lane(l).routed.comms.size(), plans[i].comms.size());
      expect_cost_bits_eq(comm_cost(plans[i], cluster, opts[i]), out[l], l);
    }
  }
}

}  // namespace
}  // namespace tap::cost
