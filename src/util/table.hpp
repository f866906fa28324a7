// Aligned-text table emission. Every benchmark harness prints its
// figure/table series through this so output stays uniform and greppable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace nck {

/// Collects rows of stringified cells and renders them as an aligned
/// monospace table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();

  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 3);
  Table& cell(long long value);
  Table& cell(unsigned long long value);
  Table& cell(int value) { return cell(static_cast<long long>(value)); }
  Table& cell(std::size_t value) {
    return cell(static_cast<unsigned long long>(value));
  }

  /// Renders with column alignment and a header rule.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with benches).
std::string format_double(double value, int precision = 3);

}  // namespace nck
