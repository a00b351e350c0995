// Plain-text table printer used by the figure benches to emit the same
// rows/series the paper reports, plus CSV export for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace nustencil {

/// A column-oriented table: one label column plus numeric data columns.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Sets the header row. The first entry labels the row-key column.
  void set_header(std::vector<std::string> header) { header_ = std::move(header); }

  /// Appends one row: a key plus values, one per data column; NaN prints "-".
  void add_row(std::string key, std::vector<double> values);

  /// Pretty-print with aligned columns.
  void print(std::ostream& os) const;

  /// Comma-separated export (same layout as print).
  void print_csv(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  struct Row {
    std::string key;
    std::vector<double> values;
  };
  std::vector<Row> rows_;
};

}  // namespace nustencil
