#include "util/strings.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tap::util {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  if (s.empty()) return out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::size_t path_depth(std::string_view path) {
  if (path.empty()) return 0;
  return static_cast<std::size_t>(std::count(path.begin(), path.end(), '/')) +
         1;
}

std::string path_leaf(std::string_view path) {
  std::size_t pos = path.rfind('/');
  if (pos == std::string_view::npos) return std::string(path);
  return std::string(path.substr(pos + 1));
}

std::string longest_common_prefix(std::string_view a, std::string_view b) {
  std::size_t last_sep = std::string_view::npos;  // end of last matching comp
  std::size_t i = 0;
  std::size_t n = std::min(a.size(), b.size());
  while (i < n && a[i] == b[i]) {
    if (a[i] == '/') last_sep = i;
    ++i;
  }
  // Full match of the shorter string counts only if it ends on a component
  // boundary of the longer one (or the strings are equal).
  if (i == a.size() && (i == b.size() || b[i] == '/'))
    return std::string(a.substr(0, i));
  if (i == b.size() && (i == a.size() || a[i] == '/'))
    return std::string(b.substr(0, i));
  if (last_sep == std::string_view::npos) return "";
  return std::string(a.substr(0, last_sep));
}

std::string longest_common_prefix(const std::vector<std::string>& paths) {
  if (paths.empty()) return "";
  std::string acc = paths.front();
  for (std::size_t i = 1; i < paths.size() && !acc.empty(); ++i) {
    acc = longest_common_prefix(acc, paths[i]);
  }
  return acc;
}

std::string human_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  int unit = 0;
  while (std::abs(bytes) >= 1024.0 && unit < 5) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, kUnits[unit]);
  return buf;
}

std::string human_count(double count) {
  static const char* kUnits[] = {"", "K", "M", "B", "T"};
  int unit = 0;
  while (std::abs(count) >= 1000.0 && unit < 4) {
    count /= 1000.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f", count);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", count, kUnits[unit]);
  }
  return buf;
}

}  // namespace tap::util
