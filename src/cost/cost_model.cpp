#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "cost/flops.h"
#include "util/check.h"

namespace tap::cost {

using sharding::Collective;
using sharding::CommEvent;

double CommLedger::exposed_seconds() const {
  double s = 0.0;
  for (const CommLedgerEntry& e : entries) s += e.exposed_seconds;
  return s;
}

double CommLedger::busy_seconds() const {
  double s = 0.0;
  for (const CommLedgerEntry& e : entries) s += e.seconds;
  return s;
}

std::int64_t CommLedger::total_bytes() const {
  std::int64_t b = 0;
  for (const CommLedgerEntry& e : entries) b += e.bytes;
  return b;
}

void CommLedger::per_node(std::size_t num_nodes,
                          std::vector<double>* exposed_s,
                          std::vector<std::int64_t>* bytes) const {
  if (exposed_s != nullptr) exposed_s->assign(num_nodes, 0.0);
  if (bytes != nullptr) bytes->assign(num_nodes, 0);
  for (const CommLedgerEntry& e : entries) {
    if (e.node == ir::kInvalidGraphNode) continue;
    const auto i = static_cast<std::size_t>(e.node);
    if (i >= num_nodes) continue;
    if (exposed_s != nullptr) (*exposed_s)[i] += e.exposed_seconds;
    if (bytes != nullptr) (*bytes)[i] += e.bytes;
  }
}

double comm_event_time(const CommEvent& e, const ClusterSpec& cluster) {
  return collective_time(e.kind, e.bytes, e.group, cluster, e.cross_node) *
         e.count;
}

PlanCost comm_cost(const sharding::RoutedPlan& routed,
                   const ClusterSpec& cluster, double window_s,
                   CommLedger* ledger) {
  TAP_CHECK(routed.valid) << "cannot cost an invalid plan: " << routed.error;
  TAP_CHECK(window_s >= 0.0) << "overlap window " << window_s;
  PlanCost cost;
  if (ledger != nullptr) {
    ledger->entries.clear();
    ledger->entries.reserve(routed.comms.size());
  }
  for (const CommEvent& e : routed.comms) {
    const double t = comm_event_time(e, cluster);
    cost.comm_bytes += e.bytes * e.count;
    if (e.overlappable) {
      cost.overlappable_comm_s += t;
    } else if (e.phase == CommEvent::Phase::kForward) {
      cost.forward_comm_s += t;
    } else {
      cost.backward_comm_s += t;
    }
    if (ledger != nullptr) {
      CommLedgerEntry le;
      le.node = e.node;
      le.kind = e.kind;
      le.phase = e.phase;
      le.overlappable = e.overlappable;
      le.cross_node = e.cross_node;
      le.count = e.count;
      le.group = e.group;
      le.bytes = e.bytes * e.count;
      le.seconds = t;
      // Overlappable entries get their share of the discount below.
      le.exposed_seconds = e.overlappable ? 0.0 : t;
      ledger->entries.push_back(std::move(le));
    }
  }
  const double exposed = std::max(0.0, cost.overlappable_comm_s - window_s);
  cost.backward_comm_s += exposed;
  if (ledger != nullptr) {
    const double frac = cost.overlappable_comm_s > 0.0
                            ? exposed / cost.overlappable_comm_s
                            : 0.0;
    ledger->exposed_fraction = frac;
    for (CommLedgerEntry& le : ledger->entries)
      if (le.overlappable) le.exposed_seconds = le.seconds * frac;
  }
  return cost;
}

double backward_compute_window(const ir::TapGraph& tg,
                               const sharding::RoutedPlan& routed,
                               const std::vector<ir::GraphNodeId>* members,
                               const ClusterSpec& cluster) {
  TAP_CHECK(routed.valid);
  const sharding::PatternTable table(tg, routed.num_shards, routed.dp_replicas);
  double window = 0.0;
  auto add = [&](ir::GraphNodeId id) {
    const auto& n = tg.node(id);
    const bool split = sharding::computes_split(
        sharding::routed_pattern(table, routed, id),
        routed.output_spec[static_cast<std::size_t>(id)]);
    const double dp = static_cast<double>(std::max(1, routed.dp_replicas));
    const double shrink =
        dp * (split ? static_cast<double>(routed.num_shards) : 1.0);
    for (NodeId op : n.ops) {
      const OpWork& work = tg.op_work(op);
      window += op_time(work, cluster, shrink) * backward_factor(work.kind);
    }
  };
  if (members != nullptr) {
    for (ir::GraphNodeId id : *members) add(id);
  } else {
    for (const auto& n : tg.nodes()) add(n.id);
  }
  return window;
}

BackwardWindowTerms::BackwardWindowTerms(
    const ir::TapGraph& tg, const std::vector<ir::GraphNodeId>* members,
    int num_shards, int dp_replicas, const ClusterSpec& cluster)
    : num_shards_(num_shards), dp_replicas_(dp_replicas) {
  // The shrinks exactly as backward_compute_window forms them.
  const double dp = static_cast<double>(std::max(1, dp_replicas));
  const double replicated = dp * 1.0;
  const double split = dp * static_cast<double>(num_shards);
  // Ops of one work class have equal terms: each class is timed once per
  // shrink, on first use (NaN = not yet).
  constexpr double kUntimed = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> class_replicated(tg.num_work_classes(), kUntimed);
  std::vector<double> class_split(tg.num_work_classes(), kUntimed);
  auto add = [&](ir::GraphNodeId id) {
    const std::span<const std::uint32_t> classes = tg.op_classes(id);
    clusters_.push_back(
        {id, replicated_.size(), replicated_.size() + classes.size()});
    for (const std::uint32_t k : classes) {
      if (std::isnan(class_replicated[k])) {
        const OpWork& work = tg.class_work(k);
        const double bf = backward_factor(work.kind);
        class_replicated[k] = op_time(work, cluster, replicated) * bf;
        class_split[k] = op_time(work, cluster, split) * bf;
      }
      replicated_.push_back(class_replicated[k]);
      split_.push_back(class_split[k]);
    }
  };
  if (members != nullptr) {
    clusters_.reserve(members->size());
    for (ir::GraphNodeId id : *members) add(id);
  } else {
    clusters_.reserve(tg.num_nodes());
    for (const auto& n : tg.nodes()) add(n.id);
  }
}

double BackwardWindowTerms::window(const sharding::RoutedPlan& routed,
                                   const sharding::PatternTable& table) const {
  TAP_CHECK(routed.valid);
  TAP_CHECK(routed.num_shards == num_shards_ &&
            routed.dp_replicas == dp_replicas_)
      << "the route is not the terms' mesh";
  double window = 0.0;
  for (const Cluster& c : clusters_) {
    const bool is_split = sharding::computes_split(
        sharding::routed_pattern(table, routed, c.id),
        routed.output_spec[static_cast<std::size_t>(c.id)]);
    const double* terms = is_split ? split_.data() : replicated_.data();
    for (std::size_t k = c.begin; k < c.end; ++k) window += terms[k];
  }
  return window;
}

double BackwardWindowTerms::term(std::size_t i, bool split) const {
  const Cluster& c = clusters_[i];
  const double* terms = split ? split_.data() : replicated_.data();
  double sum = 0.0;
  for (std::size_t k = c.begin; k < c.end; ++k) sum += terms[k];
  return sum;
}

MemoryEstimate estimate_memory(const ir::TapGraph& tg,
                               const sharding::RoutedPlan& routed,
                               const TrainingOptions& training) {
  TAP_CHECK(routed.valid);
  const int num_shards = routed.num_shards;
  const sharding::PatternTable table(tg, num_shards, routed.dp_replicas);
  MemoryEstimate mem;
  for (const auto& n : tg.nodes()) {
    // Weights: the primary weight follows the pattern's layout, secondary
    // weights stay replicated.
    if (n.has_weight()) {
      const sharding::ShardingPattern& pat =
          sharding::routed_pattern(table, routed, n.id);
      for (const ir::WeightOp& w : tg.weights(n.id)) {
        const std::int64_t full = w.bytes;
        std::int64_t local = full;
        if (w.primary && pat.weight.is_split() &&
            pat.weight.fits(tg.weight_shape(w), num_shards)) {
          local = full / num_shards;
        }
        // AMP keeps an fp32 master copy plus the fp16 working copy
        // (6 B/param vs 4 B); gradients live in fp16.
        mem.weight_bytes +=
            training.amp ? local + local / 2 : local;
        if (w.trainable) {
          mem.gradient_bytes += training.amp ? local / 2 : local;
          mem.optimizer_bytes += 2 * local;  // Adam m + v, fp32 either way
        }
      }
    }
    // Activations: the local shard of every compute cluster's output is
    // kept for the backward pass. The batch is pre-split across the dp
    // replicas; a split layout additionally divides across the tp group.
    bool is_input = n.inputs.empty();
    if (!is_input && n.output.shape.rank() > 0) {
      const sharding::ShardSpec& spec =
          routed.output_spec[static_cast<std::size_t>(n.id)];
      std::int64_t full =
          n.output.size_bytes() / std::max(1, routed.dp_replicas);
      mem.activation_bytes +=
          spec.is_split() && spec.fits(n.output.shape, num_shards)
              ? full / num_shards
              : full;
    }
  }
  if (training.amp) mem.activation_bytes /= 2;  // fp16 activations
  if (training.recompute) {
    mem.activation_bytes = static_cast<std::int64_t>(
        static_cast<double>(mem.activation_bytes) * kRecomputeKeepFraction);
  }
  if (training.zero1 && routed.dp_replicas > 1) {
    mem.optimizer_bytes /= routed.dp_replicas;
  }
  return mem;
}

}  // namespace tap::cost
