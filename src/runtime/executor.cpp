#include "runtime/executor.h"

#include <algorithm>
#include <utility>

#include "runtime/kernels.h"
#include "util/check.h"
#include "util/hash.h"

namespace tap::runtime {

Executor::Executor(const Graph& g, std::uint64_t seed) : g_(g), seed_(seed) {}

Tensor Executor::weight_for(const Node& n) const {
  TAP_CHECK(n.has_weight());
  auto it = weight_overrides_.find(n.name);
  if (it != weight_overrides_.end()) {
    TAP_CHECK(it->second.shape() == n.weight->shape)
        << "weight override shape mismatch for '" << n.name << "'";
    return it->second;
  }
  util::Rng rng(util::hash_str(n.name) ^ seed_);
  return Tensor::random(n.weight->shape, rng);
}

std::unordered_map<std::string, Tensor> Executor::make_feeds() const {
  std::unordered_map<std::string, Tensor> feeds;
  for (const Node& n : g_.nodes()) {
    if (n.kind != OpKind::kPlaceholder) continue;
    util::Rng rng(util::hash_str(n.name) ^ seed_ ^ 0xfeedull);
    // Ids when an embedding consumes this placeholder.
    std::int64_t vocab = 0;
    for (NodeId c : g_.consumers(n.id)) {
      const Node& consumer = g_.node(c);
      if (consumer.kind == OpKind::kEmbedding && consumer.has_weight())
        vocab = consumer.weight->shape.dim(0);
    }
    feeds.emplace(n.name, vocab > 0
                              ? Tensor::random_ids(n.output.shape, rng, vocab)
                              : Tensor::random(n.output.shape, rng, 0.5f));
  }
  return feeds;
}

Tensor Executor::full_weighted_kernel(const Node& n,
                                      const Tensor& input) const {
  const Tensor w = weight_for(n);
  switch (n.kind) {
    case OpKind::kMatMul:
      return w.rank() == 3 ? expert_matmul(input, w) : matmul(input, w);
    case OpKind::kConv2D:
      return conv2d(input, w, static_cast<int>(n.attr_or("stride", 1)));
    case OpKind::kEmbedding:
      return embedding(input, w);
    case OpKind::kLayerNorm:
    case OpKind::kBatchNorm:
      return layer_norm(input, w);
    case OpKind::kBiasAdd:
      return bias_add(input, w);
    case OpKind::kMoeRouter:
      return softmax(matmul(input, w));
    default:
      TAP_CHECK(false) << "unsupported weighted op "
                       << op_kind_name(n.kind);
  }
  return {};
}

Tensor Executor::execute_weighted(const Node& n, const Tensor& input) const {
  return full_weighted_kernel(n, input);
}

namespace {

/// Deterministic round-robin MoE dispatch: slot (e, c) holds token
/// (e * capacity + c) mod tokens. Combine averages the slots that map to
/// each token. Simple, seedless, and — critically — per-expert
/// independent, so expert-parallel execution is exactly equivalent.
Tensor moe_dispatch_kernel(const Tensor& x, std::int64_t experts,
                           std::int64_t capacity) {
  const std::int64_t d = x.shape().dim(-1);
  const std::int64_t tokens = x.num_elements() / d;
  Tensor out(TensorShape{experts, capacity, d});
  for (std::int64_t e = 0; e < experts; ++e)
    for (std::int64_t c = 0; c < capacity; ++c) {
      const std::int64_t t = (e * capacity + c) % tokens;
      std::copy(x.data() + t * d, x.data() + (t + 1) * d,
                out.data() + (e * capacity + c) * d);
    }
  return out;
}

Tensor moe_combine_kernel(const Tensor& expert_out,
                          const TensorShape& token_shape) {
  const std::int64_t d = expert_out.shape().dim(-1);
  const std::int64_t experts = expert_out.shape().dim(0);
  const std::int64_t capacity = expert_out.shape().dim(1);
  Tensor out{token_shape};
  const std::int64_t tokens = out.num_elements() / d;
  std::vector<float> hits(static_cast<std::size_t>(tokens), 0.0f);
  for (std::int64_t e = 0; e < experts; ++e)
    for (std::int64_t c = 0; c < capacity; ++c) {
      const std::int64_t t = (e * capacity + c) % tokens;
      hits[static_cast<std::size_t>(t)] += 1.0f;
      for (std::int64_t i = 0; i < d; ++i)
        out[t * d + i] += expert_out[(e * capacity + c) * d + i];
    }
  for (std::int64_t t = 0; t < tokens; ++t) {
    if (hits[static_cast<std::size_t>(t)] == 0.0f) continue;
    for (std::int64_t i = 0; i < d; ++i)
      out[t * d + i] /= hits[static_cast<std::size_t>(t)];
  }
  return out;
}

}  // namespace

std::unordered_map<std::string, Tensor> Executor::run(
    const std::unordered_map<std::string, Tensor>& feeds) const {
  std::vector<Tensor> value(g_.num_nodes());
  std::vector<bool> have(g_.num_nodes(), false);
  std::unordered_map<std::string, Tensor> results;

  auto in = [&](const Node& n, std::size_t i) -> const Tensor& {
    NodeId id = n.inputs[i];
    TAP_CHECK(have[static_cast<std::size_t>(id)])
        << "input '" << g_.node(id).name << "' not computed";
    return value[static_cast<std::size_t>(id)];
  };

  for (NodeId id : g_.topo_order()) {
    const Node& n = g_.node(id);
    if (is_aux(n.kind)) continue;
    Tensor out;
    switch (n.kind) {
      case OpKind::kPlaceholder: {
        auto it = feeds.find(n.name);
        TAP_CHECK(it != feeds.end()) << "missing feed '" << n.name << "'";
        TAP_CHECK(it->second.shape() == n.output.shape)
            << "feed shape mismatch for '" << n.name << "'";
        out = it->second;
        break;
      }
      case OpKind::kConst: {
        util::Rng rng(util::hash_str(n.name) ^ seed_);
        out = Tensor::random(n.output.shape, rng);
        break;
      }
      case OpKind::kMatMul:
        if (n.has_weight()) {
          out = execute_weighted(n, in(n, 0));
        } else {
          out = matmul2(in(n, 0), in(n, 1));
        }
        break;
      case OpKind::kConv2D:
      case OpKind::kEmbedding:
      case OpKind::kLayerNorm:
      case OpKind::kBatchNorm:
      case OpKind::kMoeRouter:
        out = execute_weighted(n, in(n, 0));
        break;
      case OpKind::kBiasAdd:
        out = n.has_weight() ? execute_weighted(n, in(n, 0))
                             : bias_add(in(n, 0), in(n, 1));
        break;
      case OpKind::kBatchMatMul:
        out = batch_matmul(in(n, 0), in(n, 1));
        break;
      case OpKind::kSoftmax:
        out = softmax(in(n, 0));
        break;
      case OpKind::kAdd:
      case OpKind::kSub:
      case OpKind::kMul:
      case OpKind::kDiv:
        out = binary_elementwise(n.kind, in(n, 0), in(n, 1));
        break;
      case OpKind::kReshape:
        out = in(n, 0).reshaped(n.output.shape);
        break;
      case OpKind::kTranspose: {
        std::vector<int> perm;
        for (int i = 0;; ++i) {
          auto it = n.attrs.find("perm" + std::to_string(i));
          if (it == n.attrs.end()) break;
          perm.push_back(static_cast<int>(it->second));
        }
        out = transpose(in(n, 0), perm);
        break;
      }
      case OpKind::kConcat: {
        std::vector<Tensor> parts;
        for (std::size_t i = 0; i < n.inputs.size(); ++i)
          parts.push_back(in(n, i));
        out = Tensor::concat(parts, static_cast<int>(n.attr_or("axis", 0)));
        break;
      }
      case OpKind::kMaxPool2D:
        out = max_pool(in(n, 0), static_cast<int>(n.attr_or("window", 2)),
                       static_cast<int>(n.attr_or("stride", 2)));
        break;
      case OpKind::kGlobalAvgPool:
        out = global_avg_pool(in(n, 0));
        break;
      case OpKind::kReduceMean:
      case OpKind::kReduceSum:
        out = reduce_mean(in(n, 0), n.output.shape);
        break;
      case OpKind::kCrossEntropy:
        out = cross_entropy(in(n, 0), in(n, 1));
        break;
      case OpKind::kMoeDispatch:
        out = moe_dispatch_kernel(in(n, 0), n.attr_or("experts", 1),
                                  n.attr_or("capacity", 1));
        break;
      case OpKind::kMoeCombine:
        out = moe_combine_kernel(in(n, 0), n.output.shape);
        break;
      default:
        if (is_elementwise(n.kind)) {
          out = unary_elementwise(n.kind, in(n, 0));
        } else {
          TAP_CHECK(false) << "unsupported op " << op_kind_name(n.kind)
                           << " ('" << n.name << "')";
        }
    }
    value[static_cast<std::size_t>(id)] = out;
    have[static_cast<std::size_t>(id)] = true;
    results.emplace(n.name, std::move(out));
  }
  return results;
}

// ---------------------------------------------------------------------------
// ShardedExecutor
// ---------------------------------------------------------------------------

ShardedExecutor::ShardedExecutor(const Graph& g, const ir::TapGraph& tg,
                                 const sharding::RoutedPlan& routed,
                                 std::uint64_t seed)
    : Executor(g, seed), num_shards_(routed.num_shards) {
  TAP_CHECK(routed.valid) << routed.error;
  TAP_CHECK_EQ(tg.num_source_ops(), g.num_nodes())
      << "TapGraph was lowered from another graph";
  for (const auto& gn : tg.nodes()) {
    if (!gn.has_weight()) continue;
    sharding::ShardingPattern pat = sharding::routed_pattern(tg, routed, gn.id);
    // Only the primary weight op executes the sharded math.
    NodeId primary = gn.weight_ops.front();
    for (NodeId wid : gn.weight_ops)
      if (g.node(wid).weight_params() > g.node(primary).weight_params())
        primary = wid;
    op_pattern_.emplace(primary, std::move(pat));
  }
}

Tensor ShardedExecutor::execute_weighted(const Node& n,
                                         const Tensor& input) const {
  auto it = op_pattern_.find(n.id);
  if (it == op_pattern_.end()) return full_weighted_kernel(n, input);
  const sharding::ShardingPattern& pat = it->second;
  const int D = num_shards_;
  const Tensor w = weight_for(n);

  auto per_shard = [&](auto&& fn) {
    std::vector<Tensor> parts;
    parts.reserve(static_cast<std::size_t>(D));
    for (int d = 0; d < D; ++d) parts.push_back(fn(d));
    return parts;
  };

  if (pat.name == "dp") {
    // Batch-sliced inputs, full weights; concatenating the per-device
    // outputs must reproduce the serial result.
    if (!input.shape().divisible(0, D))
      return full_weighted_kernel(n, input);
    auto parts = per_shard([&](int d) {
      Tensor xd = input.slice(0, d, D);
      switch (n.kind) {
        case OpKind::kMatMul:
          return w.rank() == 3 ? expert_matmul(xd, w) : matmul(xd, w);
        case OpKind::kConv2D:
          return conv2d(xd, w, static_cast<int>(n.attr_or("stride", 1)));
        case OpKind::kEmbedding:
          return embedding(xd, w);
        case OpKind::kLayerNorm:
        case OpKind::kBatchNorm:
          return layer_norm(xd, w);
        case OpKind::kBiasAdd:
          return bias_add(xd, w);
        case OpKind::kMoeRouter:
          return softmax(matmul(xd, w));
        default:
          TAP_CHECK(false);
          return Tensor{};
      }
    });
    return Tensor::concat(parts, 0);
  }
  if (pat.name == "split_row") {
    // Fig. 4: column-slice the input, row-slice the weight, AllReduce-sum
    // the partial products.
    return Tensor::sum(per_shard([&](int d) {
      return matmul(input.slice(-1, d, D), w.slice(0, d, D));
    }));
  }
  if (pat.name == "split_col") {
    return Tensor::concat(per_shard([&](int d) {
      return matmul(input, w.slice(1, d, D));
    }), -1);
  }
  if (pat.name == "split_vocab") {
    const std::int64_t rows = w.shape().dim(0) / D;
    return Tensor::sum(per_shard([&](int d) {
      return embedding(input, w.slice(0, d, D), d * rows);
    }));
  }
  if (pat.name == "split_hidden") {
    return Tensor::concat(per_shard([&](int d) {
      return embedding(input, w.slice(1, d, D));
    }), -1);
  }
  if (pat.name == "split_cout") {
    return Tensor::concat(per_shard([&](int d) {
      return conv2d(input, w.slice(3, d, D),
                    static_cast<int>(n.attr_or("stride", 1)));
    }), -1);
  }
  if (pat.name == "split_cin") {
    return Tensor::sum(per_shard([&](int d) {
      return conv2d(input.slice(-1, d, D), w.slice(2, d, D),
                    static_cast<int>(n.attr_or("stride", 1)));
    }));
  }
  if (pat.name == "expert_parallel") {
    return Tensor::concat(per_shard([&](int d) {
      return expert_matmul(input.slice(0, d, D), w.slice(0, d, D));
    }), 0);
  }
  if (pat.name == "split_ff") {
    return Tensor::concat(per_shard([&](int d) {
      return expert_matmul(input, w.slice(2, d, D));
    }), -1);
  }
  // "replicate" and anything unrecognized run the serial kernel.
  return full_weighted_kernel(n, input);
}

}  // namespace tap::runtime
