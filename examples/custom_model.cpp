// Bring-your-own-model: TAP needs only a dataflow graph with name scopes —
// no annotations, no per-layer hints (the "Example 1" workflow of §4.1).
// This example hand-builds a two-tower recommendation model with a huge
// item-embedding table, lets TAP plan it, and verifies the plan numerically
// against serial execution with the built-in runtime.
#include <cmath>
#include <cstdio>

#include <algorithm>

#include "core/tap.h"
#include "core/visualize.h"
#include "graph/graph_builder.h"
#include "ir/lowering.h"
#include "rewrite/rewrite.h"
#include "runtime/executor.h"
#include "runtime/spmd_interpreter.h"

int main() {
  using namespace tap;

  // --- the user's model, built with GraphBuilder ---------------------------
  GraphBuilder b("rec");
  auto root = b.scope("rec");
  NodeId user_ids = b.placeholder("inputs/user_ids", {8, 16}, DType::kI32);
  NodeId item_ids = b.placeholder("inputs/item_ids", {8, 16}, DType::kI32);

  NodeId user_vec, item_vec;
  {
    auto tower = b.scope("user_tower");
    NodeId e = b.embedding("embed", user_ids, 4096, 64);
    NodeId h = b.gelu("act", b.matmul("dense_0", e, 128));
    for (int i = 1; i <= 3; ++i) {
      auto blk = b.scope("layer_" + std::to_string(i));
      h = b.gelu("act", b.matmul("dense", h, 128));
    }
    user_vec = b.op("pool", OpKind::kReduceMean, {h},
                    {TensorShape{8, 128}, DType::kF32});
  }
  {
    auto tower = b.scope("item_tower");
    // The large side: 1M items.
    NodeId e = b.embedding("embed", item_ids, 1'048'576, 64);
    NodeId h = b.gelu("act", b.matmul("dense_0", e, 128));
    for (int i = 1; i <= 3; ++i) {
      auto blk = b.scope("layer_" + std::to_string(i));
      h = b.gelu("act", b.matmul("dense", h, 128));
    }
    item_vec = b.op("pool", OpKind::kReduceMean, {h},
                    {TensorShape{8, 128}, DType::kF32});
  }
  {
    auto head = b.scope("head");
    NodeId it = b.transpose("item_t", item_vec, {1, 0});
    NodeId scores = b.op("scores", OpKind::kMatMul, {user_vec, it},
                         {TensorShape{8, 8}, DType::kF32});
    NodeId labels = b.placeholder("labels", {8, 8});
    b.cross_entropy("loss", scores, labels);
  }
  b.add_training_auxiliaries();
  Graph model = b.take();

  // --- plan it ---------------------------------------------------------------
  ir::TapGraph tg = ir::lower(model);
  core::TapOptions opts;
  opts.num_shards = 8;
  core::TapResult r = core::auto_parallel(tg, opts);
  std::printf("searched %lld candidates, comm cost %.3f ms\n",
              static_cast<long long>(r.candidate_plans),
              r.cost.total() * 1e3);
  std::printf("%s", core::visualize_plan(tg, r.best_plan,
                                         pruning::prune_graph(tg, opts.prune))
                        .c_str());

  // --- verify p(X) = G(X) numerically ----------------------------------------
  runtime::Executor serial(model);
  auto feeds = serial.make_feeds();
  auto want = serial.run(feeds);
  runtime::ShardedExecutor sharded(model, tg, r.routed);
  auto got = sharded.run(feeds);
  float worst = 0.0f;
  for (const auto& [name, t] : want) {
    worst = std::max(worst,
                     runtime::Tensor::max_abs_diff(t, got.at(name)));
  }
  std::printf("numeric equivalence: max |serial - sharded| = %.2e over %zu "
              "tensors\n",
              static_cast<double>(worst), want.size());

  // --- and run the actual per-device SPMD program ----------------------------
  auto rw = rewrite::rewrite_graph(model, tg, r.routed, /*restore_aux=*/false);
  runtime::SpmdInterpreter interp(rw.parallel, opts.num_shards);
  auto device_outs = interp.run(feeds);
  float spmd_loss =
      runtime::SpmdInterpreter::mean_scalar(device_outs, "rec/head/loss");
  float serial_loss = want.at("rec/head/loss")[0];
  std::printf("SPMD execution on %d devices: loss %.6f vs serial %.6f\n",
              opts.num_shards, static_cast<double>(spmd_loss),
              static_cast<double>(serial_loss));
  return (worst < 1e-3f && std::fabs(spmd_loss - serial_loss) < 1e-3f) ? 0
                                                                       : 1;
}
