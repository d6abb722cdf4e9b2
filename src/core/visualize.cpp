#include "core/visualize.h"

#include <sstream>
#include <vector>

#include "util/strings.h"
#include "util/table.h"

namespace tap::core {

std::string visualize_plan(const ir::TapGraph& tg,
                           const sharding::ShardingPlan& plan,
                           const pruning::PruneResult& pruning,
                           const cost::CommLedger* ledger) {
  std::vector<double> exposed_s;
  std::vector<std::int64_t> bytes;
  if (ledger != nullptr)
    ledger->per_node(tg.num_nodes(), &exposed_s, &bytes);

  const sharding::PatternTable table(tg, plan.num_shards, plan.dp_replicas);
  std::ostringstream os;
  for (const auto& family : pruning.families) {
    bool weighted = false;
    for (ir::GraphNodeId id : family.member_nodes)
      weighted |= tg.node(id).has_weight();
    if (!weighted) continue;

    os << "+-- " << family.representative;
    if (family.multiplicity() > 1) os << "  (x" << family.multiplicity() << ")";
    os << "\n";
    for (std::size_t j = 0; j < family.member_nodes.size(); ++j) {
      ir::GraphNodeId id = family.member_nodes[j];
      const auto& n = tg.node(id);
      if (!n.has_weight()) continue;
      const auto& pats = table.at(id);
      int c = plan.choice[static_cast<std::size_t>(id)];
      std::string pat = "?", spec = "?";
      if (c >= 0 && c < static_cast<int>(pats.size())) {
        pat = pats[static_cast<std::size_t>(c)].name;
        spec = pats[static_cast<std::size_t>(c)].weight.to_string();
      }
      std::string label = family.relnames[j] == "."
                              ? util::path_leaf(family.representative)
                              : family.relnames[j].substr(1);
      os << "|   [" << spec << "] " << label << " -> " << pat;
      if (ledger != nullptr) {
        // Sum the ledger attribution over every instance of this member.
        std::int64_t member_bytes = 0;
        double member_exposed = 0.0;
        for (const auto& instance : family.instance_nodes) {
          const auto i = static_cast<std::size_t>(instance[j]);
          member_bytes += bytes[i];
          member_exposed += exposed_s[i];
        }
        if (member_bytes > 0 || member_exposed > 0.0) {
          os << "  | comm "
             << util::human_bytes(static_cast<double>(member_bytes)) << ", "
             << util::fmt("%.3f", member_exposed * 1e3) << " ms exposed";
        }
      }
      os << "\n";
    }
    os << "+--\n";
  }
  return os.str();
}

}  // namespace tap::core
