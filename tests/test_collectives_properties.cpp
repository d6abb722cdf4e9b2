// Parameterized property sweeps over the analytical collective model —
// the quantitative backbone of every cost/simulation result.
#include <gtest/gtest.h>

#include <cstdint>

#include "cost/collectives.h"

namespace tap::cost {
namespace {

using sharding::Collective;

// gtest prints a parameter type that has no printer as its raw bytes, and
// that text becomes part of the CTest test name. The padding after `kind`
// is spelled out and zeroed so the name does not pick up stack garbage and
// stays the same from one build or run to the next.
struct SweepCase {
  SweepCase(Collective k, int g) : kind(k), group(g) {}
  Collective kind;
  std::uint8_t pad[3] = {};
  int group;
};
static_assert(sizeof(SweepCase) == 8);

class CollectiveSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CollectiveSweep, MonotoneInBytes) {
  const SweepCase& c = GetParam();
  ClusterSpec cluster = ClusterSpec::v100_cluster(2);
  double prev = 0.0;
  for (std::int64_t bytes = 1 << 10; bytes <= (1 << 28); bytes <<= 4) {
    double t = collective_time(c.kind, bytes, c.group, cluster);
    EXPECT_GT(t, prev) << bytes;
    prev = t;
  }
}

TEST_P(CollectiveSweep, BandwidthBoundAtLargeMessages) {
  // For big tensors the time approaches wire_bytes / (bw * efficiency):
  // latency must contribute < 10%.
  const SweepCase& c = GetParam();
  ClusterSpec cluster = ClusterSpec::v100_cluster(2);
  const std::int64_t bytes = 1ll << 30;
  const double t = collective_time(c.kind, bytes, c.group, cluster);
  const double wire = collective_wire_bytes(c.kind, bytes, c.group);
  const double bw_only =
      wire / (cluster.ring_bandwidth(c.group) * collective_efficiency(c.kind));
  EXPECT_GT(t, bw_only);
  EXPECT_LT(t, bw_only * 1.1);
}

TEST_P(CollectiveSweep, LatencyBoundAtTinyMessages) {
  const SweepCase& c = GetParam();
  ClusterSpec cluster = ClusterSpec::v100_cluster(2);
  const double t = collective_time(c.kind, 64, c.group, cluster);
  const int steps = c.kind == Collective::kAllReduce ? 2 * (c.group - 1)
                                                     : c.group - 1;
  const double lat_only = steps * cluster.ring_latency(c.group);
  EXPECT_GE(t, lat_only);
  EXPECT_LT(t, lat_only * 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndGroups, CollectiveSweep,
    ::testing::Values(SweepCase{Collective::kAllReduce, 2},
                      SweepCase{Collective::kAllReduce, 8},
                      SweepCase{Collective::kAllReduce, 16},
                      SweepCase{Collective::kAllGather, 8},
                      SweepCase{Collective::kAllGather, 16},
                      SweepCase{Collective::kReduceScatter, 8},
                      SweepCase{Collective::kAllToAll, 8},
                      SweepCase{Collective::kAllToAll, 16},
                      SweepCase{Collective::kBroadcast, 8}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(collective_name(info.param.kind)) + "_x" +
             std::to_string(info.param.group);
    });

TEST(CollectiveScaling, BiggerGroupsMoveMoreWire) {
  for (int g = 2; g <= 64; g *= 2) {
    EXPECT_LT(collective_wire_bytes(Collective::kAllGather, 1 << 20, g),
              collective_wire_bytes(Collective::kAllGather, 1 << 20, 2 * g));
  }
}

TEST(CollectiveScaling, CrossNodeFlagForcesEthernet) {
  ClusterSpec two = ClusterSpec::v100_cluster(2);
  // Group of 2 on the intra-node fabric vs the same group across nodes.
  double intra = collective_time(Collective::kAllReduce, 64 << 20, 2, two,
                                 /*cross_node=*/false);
  double inter = collective_time(Collective::kAllReduce, 64 << 20, 2, two,
                                 /*cross_node=*/true);
  EXPECT_GT(inter, 2.0 * intra);
  // On a single node cross_node has nothing to cross.
  ClusterSpec one = ClusterSpec::v100_node();
  EXPECT_DOUBLE_EQ(
      collective_time(Collective::kAllReduce, 1 << 20, 2, one, false),
      collective_time(Collective::kAllReduce, 1 << 20, 2, one, true));
}

TEST(CollectiveScaling, EfficiencyOrderingStable) {
  // §4.6's measured ordering must hold at any size/group combination.
  ClusterSpec c = ClusterSpec::v100_cluster(2);
  for (std::int64_t bytes : {1 << 16, 1 << 22, 1 << 27}) {
    for (int g : {4, 8, 16}) {
      double ar = collective_time(Collective::kAllReduce, bytes, g, c);
      double ag = collective_time(Collective::kAllGather, bytes, g, c);
      double aa = collective_time(Collective::kAllToAll, bytes, g, c);
      // Per *wire byte*, AllReduce is fastest; AllGather/AllToAll move
      // half the volume but at lower efficiency.
      double ar_per = ar / collective_wire_bytes(Collective::kAllReduce,
                                                 bytes, g);
      double ag_per = ag / collective_wire_bytes(Collective::kAllGather,
                                                 bytes, g);
      double aa_per = aa / collective_wire_bytes(Collective::kAllToAll,
                                                 bytes, g);
      EXPECT_LT(ar_per, ag_per);
      EXPECT_LT(ag_per, aa_per);
    }
  }
}

}  // namespace
}  // namespace tap::cost
