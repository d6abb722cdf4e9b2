// Graph executors for numeric verification.
//
// Executor runs a tap Graph serially on full tensors — the reference
// semantics G(X). ShardedExecutor runs the same graph under a routed
// sharding plan, computing every *sharded* weighted op the way the
// distributed system would: slice inputs/weights per the pattern's SRC
// specs, compute per-device partials, then apply the pattern's collective
// (sum for AllReduce, concatenation for gathers). Both executors must
// produce identical outputs — the paper's constraint p(X) = G(X) ∀X — and
// the property tests in tests/test_equivalence.cpp assert exactly that
// over every pattern and several architectures.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/tensor.h"
#include "sharding/routing.h"

namespace tap::runtime {

class Executor {
 public:
  explicit Executor(const Graph& g, std::uint64_t seed = 42);
  virtual ~Executor() = default;

  /// Deterministic weight tensor for a weighted op (seeded by op name),
  /// unless an override was installed (finite-difference tests perturb
  /// single weights this way).
  Tensor weight_for(const Node& n) const;

  /// Replaces the generated weight of op `name` for subsequent runs.
  void override_weight(const std::string& name, Tensor w) {
    weight_overrides_[name] = std::move(w);
  }

  /// Deterministic feeds for every placeholder (integer ids where an
  /// embedding consumes them).
  std::unordered_map<std::string, Tensor> make_feeds() const;

  /// Executes the graph; returns every compute node's output by name.
  std::unordered_map<std::string, Tensor> run(
      const std::unordered_map<std::string, Tensor>& feeds) const;

 protected:
  /// Hook: compute a weighted op given its primary input. The base class
  /// runs the full (unsharded) kernel.
  virtual Tensor execute_weighted(const Node& n, const Tensor& input) const;

  Tensor full_weighted_kernel(const Node& n, const Tensor& input) const;

  const Graph& g_;
  std::uint64_t seed_;
  std::unordered_map<std::string, Tensor> weight_overrides_;
};

/// Executes under a sharding plan; see file comment.
class ShardedExecutor : public Executor {
 public:
  ShardedExecutor(const Graph& g, const ir::TapGraph& tg,
                  const sharding::RoutedPlan& routed,
                  std::uint64_t seed = 42);

 protected:
  Tensor execute_weighted(const Node& n, const Tensor& input) const override;

 private:
  int num_shards_;
  /// Pattern resolved per source op (empty name = run serially).
  std::unordered_map<NodeId, sharding::ShardingPattern> op_pattern_;
};

}  // namespace tap::runtime
