// coopcr/util/csv.hpp
//
// Minimal CSV writer for artifact output. Every paper artifact can dump its
// series as a CSV file (ready for gnuplot / pandas) when COOPCR_CSV_DIR is
// set, in addition to the human-readable console table.

#pragma once

#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace coopcr {

/// Format `value` with `significant_digits` digits, independent of the
/// global C/C++ locale (always '.' as the decimal separator). The default of
/// 17 significant digits round-trips any double exactly through strtod —
/// the exp::ExperimentReport CSV/JSON emission relies on this.
std::string format_number(double value, int significant_digits = 17);

/// RFC-4180-ish CSV writer (quotes fields containing separators/quotes).
class CsvWriter {
 public:
  /// Open `path` for writing; throws coopcr::Error on failure.
  explicit CsvWriter(const std::string& path);

  /// Write to a caller-owned stream (report emission, tests). The stream
  /// must outlive the writer; close() is a no-op in this mode.
  explicit CsvWriter(std::ostream& out);

  /// Not movable: out_ may point at the writer's own file stream, which a
  /// defaulted move would leave dangling.
  CsvWriter(CsvWriter&&) = delete;
  CsvWriter& operator=(CsvWriter&&) = delete;

  /// Write a header / data row from strings.
  void write_row(const std::vector<std::string>& fields);
  void write_row(std::initializer_list<std::string> fields);

  /// Convenience: first field is a label, remaining are numeric.
  void write_row(const std::string& label, const std::vector<double>& values,
                 int precision = 8);

  /// Flush and close; destructor also closes.
  void close();

  /// Number of rows written so far.
  std::size_t rows_written() const { return rows_; }

  /// Quote a field per CSV rules (exposed for tests).
  static std::string escape(const std::string& field);

  /// Resolve the CSV output directory from COOPCR_CSV_DIR; nullopt when the
  /// variable is unset or empty (artifacts then skip CSV output).
  static std::optional<std::string> env_output_dir();

 private:
  std::ofstream file_;
  std::ostream* out_ = nullptr;  ///< &file_ or the caller's stream
  std::size_t rows_ = 0;
};

}  // namespace coopcr
