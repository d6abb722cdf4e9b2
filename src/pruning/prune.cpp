#include "pruning/prune.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <unordered_map>

#include "util/check.h"
#include "util/hash.h"

namespace tap::pruning {

namespace {

using ir::GraphNodeId;
using ir::TapGraph;

/// Every GraphNode name's '/' positions, scanned once. A name's prefix at
/// depth d (its first d components) ends at its d-th '/', or is the whole
/// name when it has no deeper component.
class NamePaths {
 public:
  explicit NamePaths(const TapGraph& tg) : tg_(tg) {
    first_.reserve(tg.num_nodes() + 1);
    for (const auto& n : tg.nodes()) {
      first_.push_back(static_cast<std::uint32_t>(slashes_.size()));
      for (std::size_t i = 0; i < n.name.size(); ++i)
        if (n.name[i] == '/') slashes_.push_back(static_cast<std::uint32_t>(i));
    }
    first_.push_back(static_cast<std::uint32_t>(slashes_.size()));
  }

  /// util::path_depth of the node's name.
  std::size_t depth(GraphNodeId id) const {
    return slashes(id) + 1;  // names are never empty
  }

  /// Length of the name's prefix at depth d, for 1 <= d <= depth(id).
  std::size_t prefix_length(GraphNodeId id, std::size_t d) const {
    if (d > slashes(id)) return tg_.node(id).name.size();
    return slashes_[first_[static_cast<std::size_t>(id)] + d - 1];
  }

 private:
  std::size_t slashes(GraphNodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return first_[i + 1] - first_[i];
  }

  const TapGraph& tg_;
  std::vector<std::uint32_t> first_;    ///< per node, into slashes_
  std::vector<std::uint32_t> slashes_;  ///< '/' offsets, node by node
};

/// One member of a block: its name relative to the block prefix ("." for
/// the prefix itself, else the rest of the name from its '/').
struct Member {
  std::uint32_t block;
  std::string_view rel;
  GraphNodeId id;
};

/// The blocks at one depth. Once sort_blocks has run, prefixes are sorted
/// and members sorted by (block prefix, rel, id), so block b is
/// members[begin[b], begin[b + 1]).
struct Blocks {
  std::vector<std::string_view> prefix;
  std::vector<std::size_t> begin;
  std::vector<std::uint64_t> signature;
  std::vector<Member> members;

  std::size_t size() const { return prefix.size(); }
};

/// Groups the nodes at depth >= `d` into blocks by their prefix at `d`
/// (members in node order; sort_blocks orders them).
void group_blocks(const TapGraph& tg, const NamePaths& paths, std::size_t d,
                  Blocks* out) {
  out->prefix.clear();
  out->members.clear();
  std::unordered_map<std::string_view, std::uint32_t> block_of;
  block_of.reserve(tg.num_nodes());
  for (const auto& n : tg.nodes()) {
    if (paths.depth(n.id) < d) continue;  // shallower than blocks
    const std::size_t len = paths.prefix_length(n.id, d);
    const std::string_view name(n.name);
    const std::string_view prefix = name.substr(0, len);
    // A block's nodes are mostly adjacent: try the last node's block first.
    std::uint32_t block = 0;
    if (!out->members.empty() &&
        out->prefix[out->members.back().block] == prefix) {
      block = out->members.back().block;
    } else {
      auto [it, added] = block_of.emplace(
          prefix, static_cast<std::uint32_t>(out->prefix.size()));
      if (added) out->prefix.push_back(prefix);
      block = it->second;
    }
    out->members.push_back(
        {block, len == name.size() ? "." : name.substr(len), n.id});
  }
}

/// Orders group_blocks' output — blocks by prefix, members by (rel, id)
/// within a block — and fingerprints each block's composition.
void sort_blocks(const TapGraph& tg, Blocks* out) {
  std::vector<std::uint32_t> order(out->prefix.size());
  for (std::uint32_t b = 0; b < order.size(); ++b) order[b] = b;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return out->prefix[a] < out->prefix[b];
  });
  std::vector<std::uint32_t> rank(order.size());
  std::vector<std::string_view> sorted(order.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = r;
    sorted[r] = out->prefix[order[r]];
  }
  out->prefix.swap(sorted);
  // Bucket the members by block rank, then sort each (small) block.
  out->begin.assign(out->size() + 1, 0);
  for (Member& m : out->members) {
    m.block = rank[m.block];
    ++out->begin[m.block + 1];
  }
  for (std::size_t b = 1; b < out->begin.size(); ++b)
    out->begin[b] += out->begin[b - 1];
  std::vector<Member> bucketed(out->members.size());
  std::vector<std::size_t> fill(out->begin.begin(), out->begin.end() - 1);
  for (const Member& m : out->members) bucketed[fill[m.block]++] = m;
  out->members.swap(bucketed);
  const auto first = out->members.begin();
  for (std::size_t b = 0; b < out->size(); ++b) {
    std::sort(first + static_cast<std::ptrdiff_t>(out->begin[b]),
              first + static_cast<std::ptrdiff_t>(out->begin[b + 1]),
              [](const Member& x, const Member& y) {
                return x.rel != y.rel ? x.rel < y.rel : x.id < y.id;
              });
  }
  out->signature.assign(out->size(), 0);
  for (std::size_t b = 0; b < out->size(); ++b) {
    std::uint64_t h = util::kFnvOffset;
    for (std::size_t i = out->begin[b]; i < out->begin[b + 1]; ++i) {
      h = util::hash_combine(h, util::hash_str(out->members[i].rel));
      h = util::hash_combine(h, tg.node(out->members[i].id).fingerprint);
    }
    out->signature[b] =
        util::hash_combine(h, out->begin[b + 1] - out->begin[b]);
  }
}

SubgraphFamily singleton_family(const TapGraph& tg, GraphNodeId id) {
  const auto& n = tg.node(id);
  SubgraphFamily fam;
  fam.representative = n.name;
  fam.instances = {n.name};
  fam.relnames = {"."};
  fam.member_nodes = {id};
  fam.instance_nodes = {{id}};
  fam.signature = n.fingerprint;
  fam.params = n.params;
  return fam;
}

/// The family of `ids`, blocks of `blocks` with one signature, in prefix
/// order (the first is the representative).
SubgraphFamily block_family(const TapGraph& tg, const Blocks& blocks,
                            const std::vector<std::uint32_t>& ids) {
  const std::uint32_t first = ids.front();
  SubgraphFamily fam;
  fam.signature = blocks.signature[first];
  fam.representative = std::string(blocks.prefix[first]);
  for (std::size_t i = blocks.begin[first]; i < blocks.begin[first + 1];
       ++i) {
    fam.relnames.emplace_back(blocks.members[i].rel);
    fam.member_nodes.push_back(blocks.members[i].id);
    fam.params += tg.node(blocks.members[i].id).params;
  }
  for (std::uint32_t b : ids) {
    fam.instances.emplace_back(blocks.prefix[b]);
    std::vector<GraphNodeId> members;
    // Guard against hash collisions: relnames must match exactly.
    TAP_CHECK_EQ(blocks.begin[b + 1] - blocks.begin[b], fam.relnames.size());
    members.reserve(fam.relnames.size());
    for (std::size_t i = blocks.begin[b], j = 0; i < blocks.begin[b + 1];
         ++i, ++j) {
      TAP_CHECK(blocks.members[i].rel == fam.relnames[j])
          << "signature collision between blocks '" << fam.representative
          << "' and '" << blocks.prefix[b] << "'";
      members.push_back(blocks.members[i].id);
    }
    fam.instance_nodes.push_back(std::move(members));
  }
  return fam;
}

}  // namespace

std::vector<ir::GraphNodeId> SubgraphFamily::weighted_members(
    const ir::TapGraph& tg) const {
  std::vector<ir::GraphNodeId> out;
  for (ir::GraphNodeId id : member_nodes)
    if (tg.node(id).has_weight()) out.push_back(id);
  return out;
}

int PruneResult::max_multiplicity() const {
  int best = 0;
  for (const auto& f : families) best = std::max(best, f.multiplicity());
  return best;
}

std::size_t PruneResult::covered_nodes() const {
  std::size_t total = 0;
  for (const auto& f : families)
    total += f.relnames.size() * f.instances.size();
  return total;
}

PruneResult prune_graph(const ir::TapGraph& tg, const PruneOptions& opts) {
  PruneResult result;
  result.total_graph_nodes = tg.num_nodes();

  if (opts.min_duplicate <= 1 || tg.num_nodes() == 0) {
    // Threshold 1 = unpruned search space (§6.2.1).
    for (const auto& n : tg.nodes())
      result.families.push_back(singleton_family(tg, n.id));
    result.fold_depth = 0;
    return result;
  }

  const NamePaths paths(tg);
  std::size_t max_depth = 0;
  for (const auto& n : tg.nodes())
    max_depth = std::max(max_depth, paths.depth(n.id));

  // Find the shallowest depth with a qualifying block family — these are
  // the largest repeated subgraphs ("nodeTree" + "findSimilarBlk").
  int chosen_depth = 0;
  Blocks blocks;
  for (std::size_t d = 1; d <= max_depth && chosen_depth == 0; ++d) {
    group_blocks(tg, paths, d, &blocks);
    // Too few blocks for any signature to repeat often enough.
    if (blocks.size() < static_cast<std::size_t>(opts.min_duplicate)) continue;
    sort_blocks(tg, &blocks);
    std::unordered_map<std::uint64_t, int> sig_count;
    for (std::uint64_t sig : blocks.signature) {
      if (++sig_count[sig] >= opts.min_duplicate) {
        chosen_depth = static_cast<int>(d);
        break;
      }
    }
  }

  if (chosen_depth == 0) {
    // No repetition anywhere: behave like the unpruned case.
    for (const auto& n : tg.nodes())
      result.families.push_back(singleton_family(tg, n.id));
    return result;
  }

  result.fold_depth = chosen_depth;

  // Nodes shallower than the fold depth become singleton families.
  for (const auto& n : tg.nodes()) {
    if (paths.depth(n.id) < static_cast<std::size_t>(chosen_depth))
      result.families.push_back(singleton_family(tg, n.id));
  }

  // Group blocks by signature; fold families meeting the threshold, keep
  // the rest as multiplicity-1 families.
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_sig;
  for (std::uint32_t b = 0; b < blocks.size(); ++b)
    by_sig[blocks.signature[b]].push_back(b);
  for (const auto& [sig, ids] : by_sig) {
    if (static_cast<int>(ids.size()) >= opts.min_duplicate) {
      result.families.push_back(block_family(tg, blocks, ids));
    } else {
      for (std::uint32_t b : ids)
        result.families.push_back(block_family(tg, blocks, {b}));
    }
  }
  return result;
}

}  // namespace tap::pruning
