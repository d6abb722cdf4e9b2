// TensorShape / TensorSpec: the shape-and-dtype vocabulary of the tap IR.
//
// Shapes are always fully static in tap graphs — the planner needs exact
// byte counts to cost communication, and the paper's setting (fixed batch,
// fixed sequence length) makes all shapes known at plan time.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "graph/dtype.h"

namespace tap {

class TensorShape {
 public:
  TensorShape() = default;
  TensorShape(std::initializer_list<std::int64_t> dims) : dims_(dims) {}
  explicit TensorShape(std::vector<std::int64_t> dims)
      : dims_(std::move(dims)) {}

  static TensorShape scalar() { return TensorShape(); }

  int rank() const { return static_cast<int>(dims_.size()); }

  /// Dimension accessor with negative-index support (-1 = last).
  std::int64_t dim(int i) const;

  /// Mutates one dimension (negative index allowed); used when sharding.
  void set_dim(int i, std::int64_t v);

  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Product of all dimensions; 1 for a scalar.
  std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (std::int64_t d : dims_) n *= d;
    return n;
  }

  /// True when every dimension is >= 1.
  bool valid() const;

  /// Returns a copy with dimension `axis` divided by `parts`.
  /// Precondition: dim(axis) % parts == 0.
  TensorShape sharded(int axis, int parts) const;

  /// True iff dim(axis) is divisible by `parts`.
  bool divisible(int axis, int parts) const {
    if (rank() == 0) return false;
    const int a = axis < 0 ? axis + rank() : axis;
    if (a < 0 || a >= rank()) return false;
    return parts >= 1 && dims_[static_cast<std::size_t>(a)] % parts == 0;
  }

  std::string to_string() const;  // e.g. "[16, 512, 1024]"

  friend bool operator==(const TensorShape& a, const TensorShape& b) {
    return a.dims_ == b.dims_;
  }
  friend bool operator!=(const TensorShape& a, const TensorShape& b) {
    return !(a == b);
  }

 private:
  int normalize_axis(int i) const;
  std::vector<std::int64_t> dims_;
};

/// A shape plus element type: enough to compute bytes on the wire.
struct TensorSpec {
  TensorShape shape;
  DType dtype = DType::kF32;

  std::int64_t num_elements() const { return shape.num_elements(); }
  std::int64_t size_bytes() const {
    return num_elements() *
           static_cast<std::int64_t>(dtype_size(dtype));
  }
  std::string to_string() const {
    return shape.to_string() + ":" + std::string(dtype_name(dtype));
  }

  friend bool operator==(const TensorSpec& a, const TensorSpec& b) {
    return a.shape == b.shape && a.dtype == b.dtype;
  }
  friend bool operator!=(const TensorSpec& a, const TensorSpec& b) {
    return !(a == b);
  }
};

}  // namespace tap
