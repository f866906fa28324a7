#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace nck {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& value) {
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::cell(long long value) { return cell(std::to_string(value)); }

Table& Table::cell(unsigned long long value) {
  return cell(std::to_string(value));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string();
      os << v;
      if (c + 1 < widths.size()) os << std::string(widths[c] - v.size() + 2, ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

}  // namespace nck
