// String helpers used throughout tap, in particular the name-scope
// manipulation primitives the pruning algorithm (Algorithm 1) is built on.
//
// TAP inherits TensorFlow's convention that operator names are
// '/'-separated hierarchical paths ("t5/encoder/block_3/mha/q/matmul"). The
// longest-common-prefix machinery here operates on whole path components,
// never on raw characters, so "block_1" and "block_12" do not share a
// bogus prefix.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tap::util {

/// Splits `s` on `sep`, keeping empty components.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, char sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Number of '/'-separated components in a path ("a/b/c" -> 3, "" -> 0).
std::size_t path_depth(std::string_view path);

/// Last component of a path ("a/b/c" -> "c").
std::string path_leaf(std::string_view path);

/// Longest common prefix of two paths measured in whole components.
/// ("a/b/c", "a/b/d") -> "a/b"; ("x", "y") -> "".
std::string longest_common_prefix(std::string_view a, std::string_view b);

/// Longest common prefix over a set of paths, component-wise.
std::string longest_common_prefix(const std::vector<std::string>& paths);

/// Human-readable byte count ("1.5 GiB").
std::string human_bytes(double bytes);

/// Human-readable count with SI suffix ("1.57T", "770M", "23.5M").
std::string human_count(double count);

}  // namespace tap::util
