#include "sharding/pattern.h"

#include <algorithm>

#include "util/check.h"

namespace tap::sharding {

namespace {

using ir::GraphNode;
using ir::TapGraph;

/// Primary input activation spec of the cluster (the first external
/// producer's output). Used only for divisibility checks.
const TensorShape* primary_input_shape(const TapGraph& tg,
                                       const GraphNode& gn) {
  if (gn.inputs.empty()) return nullptr;
  return &tg.node(gn.inputs.front()).output.shape;
}

bool batch_divisible(const TensorShape* in, int parts) {
  return in != nullptr && in->rank() >= 1 && in->divisible(0, parts);
}

/// Total ways the batch axis is cut under the mesh: dp replicas times a
/// tp batch split.
int full_batch_parts(int num_shards, int dp_replicas) {
  return num_shards * std::max(1, dp_replicas);
}

ShardingPattern dp_pattern() {
  ShardingPattern p;
  p.name = "dp";
  p.input = ShardSpec::split(0);
  p.weight = ShardSpec::replicate();
  p.output = ShardSpec::split(0);
  p.backward_comm = Collective::kAllReduce;
  p.backward_subject = BwdSubject::kWeightGrad;
  return p;
}

ShardingPattern replicate_only_pattern() {
  // For norm-like ops: follow whatever layout arrives, keep the (tiny)
  // weight replicated, AllReduce its gradient.
  ShardingPattern p;
  p.name = "replicate";
  p.input = std::nullopt;  // follow
  p.weight = ShardSpec::replicate();
  p.output = std::nullopt;  // follow
  p.backward_comm = Collective::kAllReduce;
  p.backward_subject = BwdSubject::kWeightGrad;
  return p;
}

/// `ws` is the weight shape, [K, N].
void add_matmul2d(std::vector<ShardingPattern>* out,
                  const TensorShape& ws, const TensorShape* in, int parts,
                  int dp) {
  if (batch_divisible(in, full_batch_parts(parts, dp)))
    out->push_back(dp_pattern());
  if (ws.divisible(0, parts)) {
    ShardingPattern p;
    p.name = "split_row";
    p.input = ShardSpec::split(-1);
    p.weight = ShardSpec::split(0);
    p.output = ShardSpec::replicate();
    p.forward_comm = Collective::kAllReduce;  // sum the partial products
    out->push_back(p);
  }
  if (ws.divisible(1, parts)) {
    ShardingPattern p;
    p.name = "split_col";
    p.input = ShardSpec::replicate();
    p.weight = ShardSpec::split(1);
    p.output = ShardSpec::split(-1);
    p.backward_comm = Collective::kAllReduce;  // input grads are partial
    p.backward_subject = BwdSubject::kInputGrad;
    out->push_back(p);
  }
}

/// `ws` is the weight shape, [E, K, N].
void add_expert_bank(std::vector<ShardingPattern>* out,
                     const TensorShape& ws, const TensorShape* in, int parts,
                     int dp) {
  if (batch_divisible(in, full_batch_parts(parts, dp)))
    out->push_back(dp_pattern());
  if (ws.divisible(0, parts)) {
    ShardingPattern p;
    p.name = "expert_parallel";
    p.input = std::nullopt;  // tokens arrive in any layout
    p.weight = ShardSpec::split(0);
    p.output = std::nullopt;
    p.forward_comm = Collective::kAllToAll;  // dispatch + combine
    p.forward_comm_count = 2;
    out->push_back(p);
  }
  if (ws.divisible(2, parts)) {
    ShardingPattern p;
    p.name = "split_ff";
    p.input = ShardSpec::replicate();
    p.weight = ShardSpec::split(2);
    p.output = ShardSpec::replicate();
    p.forward_comm = Collective::kAllReduce;  // sum partial expert outputs
    out->push_back(p);
  }
}

/// `ws` is the weight shape, [kh, kw, Cin, Cout].
void add_conv2d(std::vector<ShardingPattern>* out,
                const TensorShape& ws, const TensorShape* in, int parts,
                int dp) {
  if (batch_divisible(in, full_batch_parts(parts, dp)))
    out->push_back(dp_pattern());
  if (ws.divisible(3, parts)) {
    ShardingPattern p;
    p.name = "split_cout";
    p.input = ShardSpec::replicate();
    p.weight = ShardSpec::split(3);
    p.output = ShardSpec::split(-1);  // NHWC channel split
    p.backward_comm = Collective::kAllReduce;
    p.backward_subject = BwdSubject::kInputGrad;
    out->push_back(p);
  }
  if (ws.divisible(2, parts)) {
    ShardingPattern p;
    p.name = "split_cin";
    p.input = ShardSpec::split(-1);
    p.weight = ShardSpec::split(2);
    p.output = ShardSpec::replicate();
    p.forward_comm = Collective::kAllReduce;
    out->push_back(p);
  }
}

/// `ws` is the weight shape, [V, H].
void add_embedding(std::vector<ShardingPattern>* out,
                   const TensorShape& ws, const TensorShape* in, int parts,
                   int dp) {
  if (batch_divisible(in, full_batch_parts(parts, dp)))
    out->push_back(dp_pattern());
  if (ws.divisible(0, parts)) {
    ShardingPattern p;
    p.name = "split_vocab";
    p.input = ShardSpec::replicate();
    p.weight = ShardSpec::split(0);
    p.output = ShardSpec::replicate();
    p.forward_comm = Collective::kAllReduce;  // non-local ids hit zeros
    out->push_back(p);
  }
  if (ws.divisible(1, parts)) {
    ShardingPattern p;
    p.name = "split_hidden";
    p.input = ShardSpec::replicate();
    p.weight = ShardSpec::split(1);
    p.output = ShardSpec::split(-1);
    out->push_back(p);
  }
}

}  // namespace

std::string ShardingPattern::to_string() const {
  // Appends only (no operator+ chains): GCC 12's -Wrestrict false
  // positive (PR105651) fires on `const char* + std::string&&` under
  // -O2 inlining, and CI compiles with -Werror.
  std::string s = name;
  s += "{in=";
  s += input ? input->to_string() : "*";
  s += ",w=";
  s += weight.to_string();
  s += ",out=";
  s += output ? output->to_string() : "*";
  if (forward_comm != Collective::kNone) {
    s += ",fwd=";
    s += collective_name(forward_comm);
    if (forward_comm_count > 1) {
      s += 'x';
      s += std::to_string(forward_comm_count);
    }
  }
  if (backward_comm != Collective::kNone) {
    s += ",bwd=";
    s += collective_name(backward_comm);
    s += backward_subject == BwdSubject::kWeightGrad ? "(wgrad)" : "(igrad)";
  }
  s += '}';
  return s;
}

ShardingPattern follow_pattern() {
  ShardingPattern p;
  p.name = "follow";
  return p;
}

bool rejects_last_axis_split(OpKind kind) {
  switch (kind) {
    case OpKind::kSoftmax:
    case OpKind::kLayerNorm:
    case OpKind::kCrossEntropy:
    case OpKind::kReduceMean:
    case OpKind::kReduceSum:
    case OpKind::kTopK:
      return true;
    default:
      return false;
  }
}

namespace {

/// patterns_for of a weighted node, from everything it reads of the node:
/// its primary weight op's kind and weight shape `ws`, and its primary
/// input shape `in`.
std::vector<ShardingPattern> weighted_patterns(OpKind kind,
                                               const TensorShape& ws,
                                               const TensorShape* in,
                                               int num_shards,
                                               int dp_replicas) {
  std::vector<ShardingPattern> out;
  if (num_shards == 1) {
    // Pure data parallelism (tp = 1): batch split if it divides, else
    // replication.
    if (dp_replicas > 1 &&
        batch_divisible(in, full_batch_parts(1, dp_replicas))) {
      out.push_back(dp_pattern());
    }
    out.push_back(replicate_only_pattern());
    return out;
  }

  switch (kind) {
    case OpKind::kMatMul:
      if (ws.rank() == 3) {  // an expert bank
        add_expert_bank(&out, ws, in, num_shards, dp_replicas);
      } else {
        add_matmul2d(&out, ws, in, num_shards, dp_replicas);
      }
      break;
    case OpKind::kConv2D:
      add_conv2d(&out, ws, in, num_shards, dp_replicas);
      break;
    case OpKind::kEmbedding:
      add_embedding(&out, ws, in, num_shards, dp_replicas);
      break;
    case OpKind::kLayerNorm:
    case OpKind::kBatchNorm:
    case OpKind::kBiasAdd:
    case OpKind::kMoeRouter:
      out.push_back(replicate_only_pattern());
      break;
    default:
      break;
  }
  if (out.empty()) {
    // "If there is no viable way to split, we can always fall back to
    // replicating the tensors" (§3.4).
    out.push_back(replicate_only_pattern());
  }
  return out;
}

/// weighted_patterns of weighted node `id`, read from its stored primary
/// weight op.
std::vector<ShardingPattern> node_patterns(const TapGraph& tg,
                                           ir::GraphNodeId id, int num_shards,
                                           int dp_replicas) {
  const ir::WeightOp& w = tg.primary_weight(id);
  return weighted_patterns(w.kind, tg.weight_shape(w),
                           primary_input_shape(tg, tg.node(id)), num_shards,
                           dp_replicas);
}

}  // namespace

PatternTable::PatternTable(const ir::TapGraph& tg, int num_shards,
                           int dp_replicas)
    : num_shards_(num_shards),
      dp_replicas_(dp_replicas),
      row_of_(tg.pattern_rows()) {
  TAP_CHECK_GE(num_shards, 1);
  TAP_CHECK_GE(dp_replicas, 1);
  // One list per pattern row of the graph (finalize() interned them); row
  // 0 is the follow row every unweighted node shares.
  rows_.reserve(tg.num_pattern_rows());
  rows_.push_back({follow_pattern()});
  for (std::uint32_t row = 1; row < tg.num_pattern_rows(); ++row) {
    rows_.push_back(node_patterns(tg, tg.pattern_row_node(row), num_shards,
                                  dp_replicas));
  }
}

std::vector<ShardingPattern> patterns_for(const ir::TapGraph& tg,
                                          ir::GraphNodeId id,
                                          int num_shards, int dp_replicas) {
  TAP_CHECK_GE(num_shards, 1);
  TAP_CHECK_GE(dp_replicas, 1);
  if (!tg.node(id).has_weight()) return {follow_pattern()};
  return node_patterns(tg, id, num_shards, dp_replicas);
}

}  // namespace tap::sharding
