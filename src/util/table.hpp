// Minimal result-table writer: every bench binary prints the rows the
// paper's evaluation would contain, both human-readable (GitHub-style
// markdown) and machine-readable (CSV).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace lps {

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Begin a new row; values are appended with `cell`.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 4);
  Table& cell(std::size_t value);
  Table& cell(std::int64_t value);
  Table& cell(int value);

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// GitHub-flavored markdown (aligned pipes).
  void print_markdown(std::ostream& os) const;
  /// RFC-4180-ish CSV (quotes cells containing separators).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lps
