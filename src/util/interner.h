// Interner: assigns each value the class of the first equal value seen.
// The classes are the distinct values in first-seen order, so a caller
// computes a function of a value once per class. Lowering interns its
// cluster keys and the ops it fingerprints, and TapGraph::finalize() the
// op work, weight shapes and pattern rows of a graph.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace tap::util {

/// A cheap multiplicative mix for Interner hashes: equal hashes are
/// checked with equality, so it need not avalanche.
inline std::uint64_t intern_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x9e3779b97f4a7c15ull;
}

/// An open-addressing table of class ids over `classes`, sized for `n`
/// values: class c is (*classes)[c], pushed the first time it is seen.
template <class T, class Hash, class Eq>
class Interner {
 public:
  Interner(std::size_t n, std::vector<T>* classes, Hash hash, Eq eq)
      : slots_(std::bit_ceil(2 * n + 2), 0),
        classes_(classes),
        hash_(hash),
        eq_(eq) {}

  std::uint32_t intern(const T& value) {
    const std::size_t mask = slots_.size() - 1;
    // The mixes leave equal low bits for values that differ only in high
    // ones (shapes, byte counts, FLOP doubles), so fold the high half in.
    const std::uint64_t h = hash_(value);
    for (std::size_t i = (h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        classes_->push_back(value);
        slots_[i] = static_cast<std::uint32_t>(classes_->size());
        return slots_[i] - 1;
      }
      if (eq_((*classes_)[slots_[i] - 1], value)) return slots_[i] - 1;
    }
  }

 private:
  std::vector<std::uint32_t> slots_;  ///< class + 1, 0 = empty
  std::vector<T>* classes_;
  Hash hash_;
  Eq eq_;
};

}  // namespace tap::util
