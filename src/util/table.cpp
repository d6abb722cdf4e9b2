#include "util/table.h"

#include <algorithm>
#include <cstdio>

namespace tap::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << row[c]
         << std::string(width[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };

  emit(header_);
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << '|' << std::string(width[c] + 2, '-');
  os << "|\n";
  for (const auto& row : rows_) emit(row);
}

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace tap::util
