// ASCII table renderer used by every bench binary to print paper-style
// tables (Table 1..5) with aligned columns.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rsp::util {

/// A simple row/column text table: the first column is left-aligned, the
/// others right-aligned.
///
/// Usage:
///   Table t({"Arch", "Area", "R(%)"});
///   t.add_row({"Base", "55739", "0"});
///   std::cout << t.render();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator at the current position.
  void add_separator();

  /// Optional caption printed above the table.
  void set_title(std::string title);

  /// Renders with box-drawing using '-', '|', '+'.
  std::string render() const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

}  // namespace rsp::util
