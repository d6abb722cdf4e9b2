#include "graph/op_work.h"

#include <algorithm>

namespace tap {

double op_flops(const Node& n) {
  const auto out = static_cast<double>(n.output.num_elements());
  switch (n.kind) {
    case OpKind::kMatMul: {
      if (n.weight) {
        const TensorShape& w = n.weight->shape;
        // 2D dense [K,N] or 3D expert bank [E,K,N]: out already includes
        // the E and N axes, so multiply by the contraction K.
        std::int64_t k = w.rank() == 3 ? w.dim(1) : w.dim(0);
        return 2.0 * out * static_cast<double>(k);
      }
      // Weightless matmul (e.g. CLIP similarity): contraction inferred
      // conservatively from the output row size.
      return 2.0 * out * static_cast<double>(
                             std::max<std::int64_t>(n.output.shape.dim(-1), 1));
    }
    case OpKind::kBatchMatMul:
      // Contraction dim is not stored; attention uses d_head or seq — use
      // the last output dim as a proxy (exact enough for ranking).
      return 2.0 * out * static_cast<double>(n.output.shape.dim(-1));
    case OpKind::kConv2D: {
      const TensorShape& w = n.weight->shape;  // [kh, kw, cin, cout]
      return 2.0 * out *
             static_cast<double>(w.dim(0) * w.dim(1) * w.dim(2));
    }
    case OpKind::kSoftmax:
    case OpKind::kLayerNorm:
    case OpKind::kBatchNorm:
      return 6.0 * out;
    case OpKind::kGelu:
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kErf:
      return 8.0 * out;
    case OpKind::kCrossEntropy:
      return 5.0 * out;
    default:
      return is_elementwise(n.kind) ? out : 2.0 * out;
  }
}

std::int64_t op_bytes_touched(const Node& n, const Graph& g) {
  std::int64_t bytes = n.output.size_bytes();
  for (NodeId in : n.inputs) bytes += g.node(in).output.size_bytes();
  if (n.weight) bytes += n.weight->size_bytes();
  return bytes;
}

}  // namespace tap
