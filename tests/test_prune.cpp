#include "pruning/prune.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "front_end_digest.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "util/strings.h"

namespace tap::pruning {
namespace {

using ir::TapGraph;

TapGraph lower_t5(int layers) {
  static std::vector<std::unique_ptr<Graph>> keep;
  keep.push_back(std::make_unique<Graph>(
      models::build_transformer(models::t5_with_layers(layers))));
  return ir::lower(*keep.back());
}

TapGraph lower_resnet(std::int64_t classes) {
  static std::vector<std::unique_ptr<Graph>> keep;
  keep.push_back(
      std::make_unique<Graph>(models::build_resnet(models::resnet50(classes))));
  return ir::lower(*keep.back());
}

TEST(Prune, T5FoldsEncoderAndDecoderBlocks) {
  TapGraph tg = lower_t5(8);
  PruneResult r = prune_graph(tg);
  EXPECT_GT(r.fold_depth, 0);
  // One family of 8 encoder blocks and one of 8 decoder blocks.
  int families_of_8 = 0;
  for (const auto& f : r.families)
    if (f.multiplicity() == 8) ++families_of_8;
  EXPECT_EQ(families_of_8, 2);
  EXPECT_EQ(r.max_multiplicity(), 8);
}

TEST(Prune, CoversEveryGraphNodeExactlyOnce) {
  TapGraph tg = lower_t5(4);
  PruneResult r = prune_graph(tg);
  EXPECT_EQ(r.covered_nodes(), tg.num_nodes());
  std::set<ir::GraphNodeId> seen;
  for (const auto& f : r.families) {
    for (const auto& inst : f.instance_nodes) {
      for (ir::GraphNodeId id : inst) {
        EXPECT_TRUE(seen.insert(id).second) << "node covered twice: " << id;
      }
    }
  }
  EXPECT_EQ(seen.size(), tg.num_nodes());
}

TEST(Prune, InstanceNodesAlignWithRelnames) {
  TapGraph tg = lower_t5(3);
  PruneResult r = prune_graph(tg);
  for (const auto& f : r.families) {
    for (std::size_t i = 0; i < f.instances.size(); ++i) {
      for (std::size_t j = 0; j < f.relnames.size(); ++j) {
        const std::string& name = tg.node(f.instance_nodes[i][j]).name;
        if (f.relnames[j] == ".") {
          EXPECT_EQ(name, f.instances[i]);
        } else {
          EXPECT_EQ(name, f.instances[i] + f.relnames[j]);
        }
      }
    }
  }
}

TEST(Prune, ThresholdOneMeansUnpruned) {
  TapGraph tg = lower_t5(4);
  PruneOptions opts;
  opts.min_duplicate = 1;
  PruneResult r = prune_graph(tg, opts);
  EXPECT_EQ(r.fold_depth, 0);
  EXPECT_EQ(r.unique_subgraphs(), tg.num_nodes());
}

TEST(Prune, UniqueSubgraphCountStableAcrossThresholds) {
  // Fig. 7: between thresholds 2 and 8 the number of unique subgraphs found
  // for T5 stays flat (the encoder/decoder block families dominate).
  TapGraph tg = lower_t5(12);
  std::size_t baseline = 0;
  for (int t = 3; t <= 8; ++t) {
    PruneOptions opts;
    opts.min_duplicate = t;
    PruneResult r = prune_graph(tg, opts);
    if (t == 3) baseline = r.unique_subgraphs();
    EXPECT_EQ(r.unique_subgraphs(), baseline) << "threshold " << t;
  }
  // Threshold 2 additionally folds the multiplicity-2 families
  // (encoder/decoder embed and final_ln), so it can only be smaller.
  PruneOptions t2;
  t2.min_duplicate = 2;
  EXPECT_LE(prune_graph(tg, t2).unique_subgraphs(), baseline);
}

TEST(Prune, HighThresholdFallsBackGracefully) {
  // A threshold above every multiplicity must still cover the graph.
  TapGraph tg = lower_t5(2);
  PruneOptions opts;
  opts.min_duplicate = 1000;
  PruneResult r = prune_graph(tg, opts);
  EXPECT_EQ(r.covered_nodes(), tg.num_nodes());
  EXPECT_EQ(r.max_multiplicity(), 1);
}

TEST(Prune, ResNetFoldsStageBlocks) {
  TapGraph tg = lower_resnet(1000);
  PruneResult r = prune_graph(tg);
  // ResNet-50 stages have 3/4/6/3 bottlenecks; the first block of each
  // stage differs (projection shortcut), leaving families of 2/3/5/2.
  std::multiset<int> mults;
  for (const auto& f : r.families)
    if (f.multiplicity() > 1) mults.insert(f.multiplicity());
  EXPECT_EQ(mults, (std::multiset<int>{2, 2, 3, 5}));
}

TEST(Prune, FamilyParamsMatchRepresentative) {
  TapGraph tg = lower_t5(2);
  PruneResult r = prune_graph(tg);
  for (const auto& f : r.families) {
    std::int64_t total = 0;
    for (ir::GraphNodeId id : f.member_nodes) total += tg.node(id).params;
    EXPECT_EQ(total, f.params);
  }
}

TEST(Prune, WeightedMembersSubset) {
  TapGraph tg = lower_t5(2);
  PruneResult r = prune_graph(tg);
  bool some_weighted = false;
  for (const auto& f : r.families) {
    auto w = f.weighted_members(tg);
    some_weighted |= !w.empty();
    for (ir::GraphNodeId id : w) EXPECT_TRUE(tg.node(id).has_weight());
  }
  EXPECT_TRUE(some_weighted);
}

TEST(Prune, SearchSpaceCollapsesWithDepth) {
  // The point of the paper: deeper models do NOT enlarge the search space.
  TapGraph tg12 = lower_t5(12);
  TapGraph tg48 = lower_t5(48);
  PruneResult r12 = prune_graph(tg12);
  PruneResult r48 = prune_graph(tg48);
  EXPECT_EQ(r12.unique_subgraphs(), r48.unique_subgraphs());
  EXPECT_GT(r48.max_multiplicity(), r12.max_multiplicity());
}

TEST(Prune, EmptyGraph) {
  TapGraph tg;
  PruneResult r = prune_graph(tg);
  EXPECT_EQ(r.unique_subgraphs(), 0u);
  EXPECT_EQ(r.covered_nodes(), 0u);
}

TEST(Prune, ZooMatchesRecordedDigests) {
  // testing::prune_digest of every front-end model's default pruning,
  // and of T5-24L at four thresholds, recorded before prune_graph read
  // the scope table: pruning must keep every family bit for bit.
  const std::map<std::string, std::string> recorded = {
      {"BERT", "abf4a7c79fad023b"},
      {"CLIP-Base", "cdb49d3515c0f6c4"},
      {"GPT-3", "db3eb60d3590b796"},
      {"ResNet50", "b5c7254bab70eb0c"},
      {"Switch Transformer", "c7897f415fe00a56"},
      {"T5-Large", "66fa041d8dc11c1e"},
      {"V-MoE", "7b36636d8d0ccf57"},
      {"ViT-Huge", "c0be994834a3afe4"},
      {"WideNet", "5e0a93d74521fc9e"},
      {"bert_24", "abf4a7c79fad023b"},
      {"gpt3_8", "4e48e4ceb9c6b585"},
      {"moe_8", "c54cd747f60069c1"},
      {"resnet50_50", "7c16023a9748f38c"},
      {"t5_192", "310b2d3eeac1dab4"},
      {"t5_24", "80701ba21630f487"},
      {"t5_24_min1", "8b6fc02fb12821a2"},
      {"t5_24_min2", "80701ba21630f487"},
      {"t5_24_min25", "815a701ab1031bf4"},
      {"t5_24_min3", "1200ec6ca249a528"},
      {"t5_48", "afbbac913d5d4174"},
      {"t5_8", "10f4d7539a319eb9"},
      {"wav2vec 2.0", "0ac5a61f7d7cf089"},
  };
  std::map<std::string, std::string> got;
  for (const testing::FrontEndModel& m : testing::front_end_zoo())
    got[m.name] = testing::prune_digest(prune_graph(ir::lower(m.graph)));
  const Graph t5 = models::build_transformer(models::t5_with_layers(24));
  const TapGraph tg = ir::lower(t5);
  for (int min_duplicate : {1, 2, 3, 25}) {
    PruneOptions opts;
    opts.min_duplicate = min_duplicate;
    got["t5_24_min" + std::to_string(min_duplicate)] =
        testing::prune_digest(prune_graph(tg, opts));
  }
  EXPECT_EQ(got, recorded);
}

}  // namespace
}  // namespace tap::pruning
