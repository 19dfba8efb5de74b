// coopcr/util/table.hpp
//
// Console table printer used by the spec registry and the examples to render
// paper-style tables (Table 1 and the figure data series) with aligned
// columns.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace coopcr {

/// Column-aligned text table.
///
/// Usage:
///   TablePrinter t({"strategy", "waste", "d1", "d9"});
///   t.add_row({"Least-Waste", "0.21", "0.18", "0.27"});
///   t.print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Append a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Number formatting helper: fixed-point with `precision` digits.
  static std::string fmt(double value, int precision = 4);

  /// Render with a header underline and 2-space column gaps.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace coopcr
