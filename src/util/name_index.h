// NameIndex: a hash index from names to the dense ids of a node list that
// stores ids and hashes only. The names stay in the nodes, and a lookup
// reads a candidate's name back through the caller, so no name is stored
// twice. Graph and TapGraph keep one each: a second copy of every op name
// in a string-keyed map is about a fifth of a framework graph's memory.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace tap::util {

class NameIndex {
 public:
  /// Room for `n` names without rehashing.
  void reserve(std::size_t n) {
    if (2 * n > slots_.size()) rehash(std::bit_ceil(2 * n));
  }

  /// The id stored under `name`, or -1. `name_of(id)` is id's name.
  template <class NameOf>
  std::int32_t find(std::string_view name, const NameOf& name_of) const {
    if (slots_.empty()) return -1;
    const std::uint32_t h = hash(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id < 0) return -1;
      if (s.hash == h && name_of(s.id) == name) return s.id;
    }
  }

  /// The id stored under `name`. When there is none, stores `id` under
  /// it and returns `id`: one hash and one probe for a lookup and an
  /// insert. `name_of` is only called for ids already stored.
  template <class NameOf>
  std::int32_t find_or_insert(std::string_view name, std::int32_t id,
                              const NameOf& name_of) {
    if (2 * (size_ + 1) > slots_.size())
      rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    const std::uint32_t h = hash(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.id < 0) {
        s = {id, h};
        ++size_;
        return id;
      }
      if (s.hash == h && name_of(s.id) == name) return s.id;
    }
  }

 private:
  struct Slot {
    std::int32_t id = -1;  ///< -1 = empty
    std::uint32_t hash = 0;
  };

  static std::uint32_t hash(std::string_view name) {
    const std::uint64_t h = std::hash<std::string_view>{}(name);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }
  /// Linear probing at a load factor of at most one half.
  void place(Slot s) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = s.hash & mask;
    while (slots_[i].id >= 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
  void rehash(std::size_t num_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(num_slots, Slot{});
    for (const Slot& s : old)
      if (s.id >= 0) place(s);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace tap::util
