#include "graph/tensor_shape.h"

#include "util/check.h"

namespace tap {

int TensorShape::normalize_axis(int i) const {
  int r = rank();
  if (i < 0) i += r;
  TAP_CHECK(i >= 0 && i < r) << "axis " << i << " out of range for rank " << r;
  return i;
}

std::int64_t TensorShape::dim(int i) const { return dims_[normalize_axis(i)]; }

void TensorShape::set_dim(int i, std::int64_t v) {
  dims_[normalize_axis(i)] = v;
}

bool TensorShape::valid() const {
  for (std::int64_t d : dims_)
    if (d < 1) return false;
  return true;
}

TensorShape TensorShape::sharded(int axis, int parts) const {
  int a = normalize_axis(axis);
  TAP_CHECK(parts >= 1);
  TAP_CHECK_EQ(dims_[a] % parts, 0)
      << "dim " << a << " (" << dims_[a] << ") not divisible by " << parts;
  TensorShape out = *this;
  out.dims_[a] = dims_[a] / parts;
  return out;
}

std::string TensorShape::to_string() const {
  std::string s = "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(dims_[i]);
  }
  s += "]";
  return s;
}

}  // namespace tap
