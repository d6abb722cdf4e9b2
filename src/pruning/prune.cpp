#include "pruning/prune.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace tap::pruning {

namespace {

using ir::GraphNodeId;
using ir::TapGraph;

/// The blocks at one depth, in lexicographic order of their prefixes:
/// block b is the scope prefix[b], and its members are
/// members[begin[b], begin[b + 1]) in name order.
struct Blocks {
  std::vector<ir::ScopeId> prefix;
  std::vector<std::size_t> begin;
  std::vector<std::uint64_t> signature;
  std::vector<GraphNodeId> members;

  std::size_t size() const { return prefix.size(); }
};

/// A member's name relative to its block prefix: "." for the prefix
/// itself, else the rest of the name from its '/'.
std::string_view relname(const TapGraph& tg, ir::ScopeId block,
                         GraphNodeId id) {
  if (tg.scope_of(id) == block) return ".";
  return std::string_view(tg.node(id).name)
      .substr(tg.scopes()[static_cast<std::size_t>(block)].length);
}

/// Groups the nodes at depth >= `d` into blocks by their scope at `d`.
/// `by_name` lists the nodes in name order, so each block's members come
/// out in name order, which within one block is the order of their
/// relnames ("." < "/...", and the rest compares as the whole name).
/// `block_of` maps scopes to blocks and is left all -1.
void group_blocks(const TapGraph& tg, const std::vector<GraphNodeId>& by_name,
                  std::uint32_t d, std::vector<std::int32_t>* block_of,
                  Blocks* out) {
  const std::vector<ir::Scope>& scopes = tg.scopes();
  const auto at = [&](ir::ScopeId s) -> const ir::Scope& {
    return scopes[static_cast<std::size_t>(s)];
  };
  const auto block = [&](ir::ScopeId s) -> std::int32_t& {
    return (*block_of)[static_cast<std::size_t>(s)];
  };
  // Each node deep enough and its scope at d, in by_name order.
  std::vector<std::pair<ir::ScopeId, GraphNodeId>> deep;
  deep.reserve(by_name.size());
  out->prefix.clear();
  for (GraphNodeId id : by_name) {
    ir::ScopeId s = tg.scope_of(id);
    if (at(s).depth < d) continue;  // shallower than blocks
    while (at(s).depth > d) s = at(s).parent;
    deep.emplace_back(s, id);
    if (block(s) < 0) {
      block(s) = 0;
      out->prefix.push_back(s);
    }
  }
  std::sort(out->prefix.begin(), out->prefix.end(),
            [&](ir::ScopeId a, ir::ScopeId b) {
              return at(a).rank < at(b).rank;
            });
  for (std::size_t b = 0; b < out->size(); ++b)
    block(out->prefix[b]) = static_cast<std::int32_t>(b);
  out->begin.assign(out->size() + 1, 0);
  for (const auto& [s, id] : deep)
    ++out->begin[static_cast<std::size_t>(block(s)) + 1];
  for (std::size_t b = 1; b < out->begin.size(); ++b)
    out->begin[b] += out->begin[b - 1];
  out->members.resize(deep.size());
  std::vector<std::size_t> fill(out->begin.begin(), out->begin.end() - 1);
  for (const auto& [s, id] : deep)
    out->members[fill[static_cast<std::size_t>(block(s))]++] = id;
  for (ir::ScopeId s : out->prefix) block(s) = -1;
}

/// Whether some member count repeats `min_duplicate` times: blocks of one
/// signature have one member count, so a depth where none does has no
/// family to fold.
bool counts_repeat(const Blocks& blocks, int min_duplicate) {
  std::vector<std::size_t> counts(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b)
    counts[b] = blocks.begin[b + 1] - blocks.begin[b];
  std::sort(counts.begin(), counts.end());
  for (std::size_t i = 0, j = 0; i < counts.size(); i = j) {
    while (j < counts.size() && counts[j] == counts[i]) ++j;
    if (static_cast<int>(j - i) >= min_duplicate) return true;
  }
  return false;
}

/// Fingerprints each block's composition: its members' relnames and
/// fingerprints in order, and their count.
void sign_blocks(const TapGraph& tg, Blocks* out) {
  out->signature.assign(out->size(), 0);
  for (std::size_t b = 0; b < out->size(); ++b) {
    std::uint64_t h = util::kFnvOffset;
    for (std::size_t i = out->begin[b]; i < out->begin[b + 1]; ++i) {
      const GraphNodeId id = out->members[i];
      h = util::hash_combine(
          h, util::hash_str(relname(tg, out->prefix[b], id)));
      h = util::hash_combine(h, tg.node(id).fingerprint);
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
  fam.representative = std::string(tg.scope_name(blocks.prefix[first]));
  for (std::size_t i = blocks.begin[first]; i < blocks.begin[first + 1];
       ++i) {
    const GraphNodeId id = blocks.members[i];
    fam.relnames.emplace_back(relname(tg, blocks.prefix[first], id));
    fam.member_nodes.push_back(id);
    fam.params += tg.node(id).params;
  }
  for (std::uint32_t b : ids) {
    fam.instances.emplace_back(tg.scope_name(blocks.prefix[b]));
    std::vector<GraphNodeId> members;
    // Guard against hash collisions: relnames must match exactly.
    TAP_CHECK_EQ(blocks.begin[b + 1] - blocks.begin[b], fam.relnames.size());
    members.reserve(fam.relnames.size());
    for (std::size_t i = blocks.begin[b], j = 0; i < blocks.begin[b + 1];
         ++i, ++j) {
      const GraphNodeId id = blocks.members[i];
      TAP_CHECK(relname(tg, blocks.prefix[b], id) == fam.relnames[j])
          << "signature collision between blocks '" << fam.representative
          << "' and '" << fam.instances.back() << "'";
      members.push_back(id);
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

  // The nodes in name order: rank is a permutation of the scopes.
  const std::vector<ir::Scope>& scopes = tg.scopes();
  std::vector<GraphNodeId> by_name;
  {
    std::vector<GraphNodeId> at_rank(scopes.size(), ir::kInvalidGraphNode);
    for (const auto& n : tg.nodes())
      at_rank[scopes[static_cast<std::size_t>(tg.scope_of(n.id))].rank] = n.id;
    by_name.reserve(tg.num_nodes());
    for (GraphNodeId id : at_rank)
      if (id != ir::kInvalidGraphNode) by_name.push_back(id);
  }
  const auto depth = [&](GraphNodeId id) {
    return scopes[static_cast<std::size_t>(tg.scope_of(id))].depth;
  };
  std::uint32_t max_depth = 0;
  for (const auto& n : tg.nodes()) max_depth = std::max(max_depth, depth(n.id));

  // Find the shallowest depth with a qualifying block family — these are
  // the largest repeated subgraphs ("nodeTree" + "findSimilarBlk").
  int chosen_depth = 0;
  Blocks blocks;
  std::vector<std::int32_t> block_of(scopes.size(), -1);
  for (std::uint32_t d = 1; d <= max_depth && chosen_depth == 0; ++d) {
    group_blocks(tg, by_name, d, &block_of, &blocks);
    // Too few blocks, or too few of one size, for any signature to
    // repeat often enough.
    if (blocks.size() < static_cast<std::size_t>(opts.min_duplicate) ||
        !counts_repeat(blocks, opts.min_duplicate))
      continue;
    sign_blocks(tg, &blocks);
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
    if (depth(n.id) < static_cast<std::uint32_t>(chosen_depth))
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
