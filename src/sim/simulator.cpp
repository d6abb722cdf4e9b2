#include "sim/simulator.h"

#include <algorithm>
#include <map>

#include "cost/collectives.h"
#include "cost/flops.h"
#include "fusion/fusion.h"
#include "util/check.h"
#include "util/strings.h"

namespace tap::sim {

namespace {

using ir::GraphNodeId;
using sharding::CommEvent;

/// Finish time of a scheduled task plus the trace-event index that
/// produced it (-1 = nothing recorded), so successors can name the event
/// whose completion gates their start.
struct Done {
  double t = 0.0;
  std::int64_t ev = -1;
};

/// Two-resource list scheduler state (one SPMD device's streams). When a
/// trace is attached, every task records which predecessor bound its
/// start time — the dependency chain report::analyze_critical_path walks.
struct Streams {
  using Args = std::map<std::string, std::string>;

  double compute_free = 0.0;
  double comm_free = 0.0;
  double makespan = 0.0;
  std::int64_t compute_ev = -1;  ///< last event on the compute lane
  std::int64_t comm_ev = -1;     ///< last event on the comm lane
  std::int64_t makespan_ev = -1;
  Trace* trace = nullptr;
  const char* phase = "forward";

  Done run_compute(Done ready, double dur, const std::string& name = {},
                   Args args = {}) {
    const double start = std::max(ready.t, compute_free);
    // The binding constraint names the predecessor: the compute lane if
    // it freed last, otherwise the data dependency.
    std::int64_t pred = compute_free >= ready.t ? compute_ev : ready.ev;
    compute_free = start + dur;
    std::int64_t ev = -1;
    if (trace != nullptr && dur > 0.0)
      ev = trace->add(name, phase, start, dur, /*lane=*/0, pred,
                      std::move(args));
    if (ev < 0) ev = pred;  // zero-duration tasks chain through
    if (compute_free > makespan) {
      makespan = compute_free;
      makespan_ev = ev;
    }
    compute_ev = ev;
    return {compute_free, ev};
  }

  Done run_comm(Done ready, double dur, bool blocking,
                const std::string& name = {}, Args args = {}) {
    double start = std::max(ready.t, comm_free);
    std::int64_t pred = comm_free >= ready.t ? comm_ev : ready.ev;
    if (blocking && compute_free > start) {
      start = compute_free;
      pred = compute_ev;
    }
    comm_free = start + dur;
    if (blocking) compute_free = comm_free;
    std::int64_t ev = -1;
    if (trace != nullptr && dur > 0.0)
      ev = trace->add(name, phase, start, dur, /*lane=*/1, pred,
                      std::move(args));
    if (ev < 0) ev = pred;
    if (comm_free > makespan) {
      makespan = comm_free;
      makespan_ev = ev;
    }
    comm_ev = ev;
    if (blocking) compute_ev = ev;
    return {comm_free, ev};
  }
};

/// max() over task finishes, keeping the gating event (first wins ties —
/// deterministic: callers iterate in fixed index order).
Done later(Done a, Done b) { return b.t > a.t ? b : a; }

}  // namespace

StepBreakdown simulate_step(const ir::TapGraph& tg,
                            const sharding::RoutedPlan& routed,
                            int num_shards, const cost::ClusterSpec& cluster,
                            const SimOptions& opts) {
  TAP_CHECK(routed.valid) << "cannot simulate invalid plan: " << routed.error;
  TAP_CHECK_EQ(num_shards, routed.num_shards)
      << "simulate_step's mesh differs from the one the plan was routed for";

  const sharding::PatternTable table(tg, routed.num_shards, routed.dp_replicas);
  StepBreakdown out;
  out.memory = cost::estimate_memory(tg, routed, opts.training);
  const double amp_speed = opts.training.amp ? cost::kAmpComputeSpeedup : 1.0;
  const double amp_bytes = opts.training.amp ? 0.5 : 1.0;
  const double recompute_factor =
      opts.training.recompute ? 1.0 + cost::kRecomputeExtraBackward : 1.0;

  // --- per-cluster durations ------------------------------------------------
  std::vector<double> fwd_dur(tg.num_nodes(), 0.0);
  std::vector<double> bwd_dur(tg.num_nodes(), 0.0);
  for (const auto& n : tg.nodes()) {
    const bool split = sharding::computes_split(
        sharding::routed_pattern(table, routed, n.id),
        routed.output_spec[static_cast<std::size_t>(n.id)]);
    const double dp = static_cast<double>(std::max(1, routed.dp_replicas));
    const double shrink =
        dp * (split ? static_cast<double>(routed.num_shards) : 1.0);
    for (NodeId op : n.ops) {
      const OpWork& work = tg.op_work(op);
      const bool fused = opts.xla_fusion && fusion::is_fusable(work.kind);
      const double t = cost::op_time(work, cluster, shrink, fused) / amp_speed;
      fwd_dur[static_cast<std::size_t>(n.id)] += t;
      bwd_dur[static_cast<std::size_t>(n.id)] +=
          t * cost::backward_factor(work.kind) * recompute_factor;
    }
  }

  // --- index comm events by cluster ----------------------------------------
  std::vector<std::vector<const CommEvent*>> fwd_comm(tg.num_nodes());
  std::vector<std::vector<const CommEvent*>> bwd_blocking(tg.num_nodes());
  std::vector<const CommEvent*> wgrads;  // topo order; reversed below
  for (const CommEvent& e : routed.comms) {
    if (e.overlappable) {
      wgrads.push_back(&e);
    } else if (e.phase == CommEvent::Phase::kForward) {
      fwd_comm[static_cast<std::size_t>(e.node)].push_back(&e);
    } else {
      bwd_blocking[static_cast<std::size_t>(e.node)].push_back(&e);
    }
  }
  std::reverse(wgrads.begin(), wgrads.end());  // backward order

  auto comm_time = [&](const CommEvent& e) {
    const auto bytes =
        static_cast<std::int64_t>(static_cast<double>(e.bytes) * amp_bytes);
    return cost::collective_time(e.kind, bytes, e.group, cluster,
                                 e.cross_node) *
           e.count;
  };

  Streams s;
  s.trace = opts.trace;

  // Per-event Perfetto args — built only when a trace is attached.
  auto comm_args = [&](const CommEvent& e) {
    Streams::Args args;
    if (s.trace == nullptr) return args;
    args["bytes"] = std::to_string(static_cast<std::int64_t>(
        static_cast<double>(e.bytes) * amp_bytes));
    args["collective"] = std::string(sharding::collective_name(e.kind));
    args["group"] = std::to_string(e.group);
    if (e.count > 1) args["count"] = std::to_string(e.count);
    if (e.cross_node) args["cross_node"] = "1";
    return args;
  };
  // Trace event name of a collective — also built only with a trace.
  auto comm_name = [&](const ir::GraphNode& n, const CommEvent& e) {
    if (s.trace == nullptr) return std::string();
    std::string name = n.name;
    name += ':';
    name += sharding::comm_reason(table, routed, e);
    return name;
  };
  auto compute_args = [&](const ir::GraphNode& n) {
    Streams::Args args;
    if (s.trace == nullptr) return args;
    args["shape"] = n.output.shape.to_string();
    args["ops"] = std::to_string(n.ops.size());
    return args;
  };

  std::vector<Done> fwd_finish(tg.num_nodes());
  std::vector<Done> bwd_finish(tg.num_nodes());
  const std::vector<GraphNodeId> topo = tg.topo_order();

  // --- forward pass ----------------------------------------------------------
  for (GraphNodeId id : topo) {
    const auto& n = tg.node(id);
    Done ready;
    for (GraphNodeId in : n.inputs)
      ready = later(ready, fwd_finish[static_cast<std::size_t>(in)]);
    // Layout conversions happen before the consumer computes; pattern
    // collectives right after.
    Done t = ready;
    for (const CommEvent* e : fwd_comm[static_cast<std::size_t>(id)]) {
      if (e->why != sharding::CommReason::kReshard) continue;
      t = s.run_comm(t, comm_time(*e), /*blocking=*/true, comm_name(n, *e),
                     comm_args(*e));
      out.comm_s += comm_time(*e);
      ++out.comm_messages;
    }
    t = s.run_compute(t, fwd_dur[static_cast<std::size_t>(id)],
                      n.name + ":fwd", compute_args(n));
    out.forward_compute_s += fwd_dur[static_cast<std::size_t>(id)];
    for (const CommEvent* e : fwd_comm[static_cast<std::size_t>(id)]) {
      if (e->why == sharding::CommReason::kReshard) continue;
      t = s.run_comm(t, comm_time(*e), /*blocking=*/true, comm_name(n, *e),
                     comm_args(*e));
      out.comm_s += comm_time(*e);
      ++out.comm_messages;
    }
    fwd_finish[static_cast<std::size_t>(id)] = t;
  }

  // --- backward pass ---------------------------------------------------------
  s.phase = "backward";
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    GraphNodeId id = *it;
    Done ready;  // dependencies via consumers
    for (GraphNodeId c : tg.consumers(id))
      ready = later(ready, bwd_finish[static_cast<std::size_t>(c)]);
    ready = later(ready, fwd_finish[static_cast<std::size_t>(id)]);
    Done t = s.run_compute(ready, bwd_dur[static_cast<std::size_t>(id)],
                           tg.node(id).name + ":bwd",
                           compute_args(tg.node(id)));
    out.backward_compute_s += bwd_dur[static_cast<std::size_t>(id)];
    for (const CommEvent* e : bwd_blocking[static_cast<std::size_t>(id)]) {
      t = s.run_comm(t, comm_time(*e), /*blocking=*/true,
                     comm_name(tg.node(id), *e), comm_args(*e));
      out.comm_s += comm_time(*e);
      ++out.comm_messages;
    }
    bwd_finish[static_cast<std::size_t>(id)] = t;
  }
  s.phase = "gradsync";

  // --- gradient synchronization + weight update -------------------------------
  // Pack the overlappable weight-gradient collectives into buckets.
  std::vector<rewrite::GradientTensor> grads;
  grads.reserve(wgrads.size());
  for (const CommEvent* e : wgrads)
    grads.push_back({tg.node(e->node).name, e->bytes});
  rewrite::PackingResult packed;
  if (opts.gradient_packing) {
    packed = rewrite::pack_gradients(grads, opts.packing);
  } else {
    for (std::size_t i = 0; i < grads.size(); ++i) {
      rewrite::GradientBucket b;
      b.gradient_indices = {i};
      b.bytes = grads[i].bytes;
      packed.buckets.push_back(std::move(b));
    }
    packed.messages_before = packed.messages_after = grads.size();
  }

  // With XLA fusion, a gradient collective cannot launch until the fused
  // kernel enclosing its producer retires — model that as a launch delay
  // of a few average cluster-backward durations (§6.2.2's overlap
  // hindrance).
  const double fusion_delay =
      opts.xla_fusion && tg.num_nodes() > 0
          ? 4.0 * out.backward_compute_s /
                static_cast<double>(tg.num_nodes())
          : 0.0;

  for (const auto& bucket : packed.buckets) {
    // A bucket is ready once the latest contributing cluster finished its
    // backward compute.
    Done ready;
    for (std::size_t gi : bucket.gradient_indices)
      ready = later(
          ready, bwd_finish[static_cast<std::size_t>(wgrads[gi]->node)]);
    ready.t += fusion_delay;
    int group = 1;
    bool cross = false;
    for (std::size_t gi : bucket.gradient_indices) {
      group = std::max(group, wgrads[gi]->group);
      cross |= wgrads[gi]->cross_node;
    }
    const auto bucket_bytes = static_cast<std::int64_t>(
        static_cast<double>(bucket.bytes) * amp_bytes);
    const double dur = cost::collective_time(
        sharding::Collective::kAllReduce, bucket_bytes, group, cluster,
        cross);
    Streams::Args args;
    if (s.trace != nullptr) {
      args["bytes"] = std::to_string(bucket_bytes);
      args["collective"] =
          std::string(sharding::collective_name(
              sharding::Collective::kAllReduce));
      args["group"] = std::to_string(group);
      args["tensors"] = std::to_string(bucket.gradient_indices.size());
      if (cross) args["cross_node"] = "1";
    }
    // Overlaps backward compute on the COMM stream.
    Done done = s.run_comm(
        ready, dur, /*blocking=*/false,
        "grad bucket (" +
            std::to_string(bucket.gradient_indices.size()) + " tensors)",
        std::move(args));
    out.comm_s += dur;
    ++out.comm_messages;
    // Pipelined weight update per bucket (§4.7.1).
    const double upd =
        3.0 * static_cast<double>(bucket.bytes) / cluster.mem_bw;
    Streams::Args upd_args;
    if (s.trace != nullptr)
      upd_args["bytes"] = std::to_string(bucket.bytes);
    s.run_compute(done, upd, "weight update", std::move(upd_args));
    out.update_s += upd;
  }

  if (opts.training.zero1 && routed.dp_replicas > 1) {
    // ZeRO-1: each dp replica updates only its optimizer shard, then the
    // refreshed weights are re-gathered across the dp group.
    const auto gather_bytes = static_cast<std::int64_t>(
        static_cast<double>(out.memory.weight_bytes) * amp_bytes);
    const double gather = cost::collective_time(
        sharding::Collective::kAllGather, gather_bytes, routed.dp_replicas,
        cluster, /*cross_node=*/true);
    Streams::Args args;
    if (s.trace != nullptr) {
      args["bytes"] = std::to_string(gather_bytes);
      args["collective"] =
          std::string(sharding::collective_name(
              sharding::Collective::kAllGather));
      args["group"] = std::to_string(routed.dp_replicas);
      args["cross_node"] = "1";
    }
    s.run_comm({s.makespan, s.makespan_ev}, gather, /*blocking=*/true,
               "zero1 weight gather", std::move(args));
    out.comm_s += gather;
    ++out.comm_messages;
  }

  out.iteration_s = s.makespan;
  out.exposed_comm_s = std::max(0.0, out.iteration_s - out.compute_s());
  return out;
}

}  // namespace tap::sim
