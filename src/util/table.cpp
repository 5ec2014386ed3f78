#include "util/table.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rsp::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty())
    throw InvalidArgumentError("Table requires at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size())
    throw InvalidArgumentError("row arity " + std::to_string(cells.size()) +
                               " does not match header arity " +
                               std::to_string(header_.size()));
  rows_.push_back(Row{false, std::move(cells)});
}

void Table::add_separator() { rows_.push_back(Row{true, {}}); }

void Table::set_title(std::string title) { title_ = std::move(title); }

std::string Table::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    width[c] = header_[c].size();
  for (const Row& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c)
      width[c] = std::max(width[c], row.cells[c].size());
  }

  // One output string, appended in place: no per-cell temporaries.
  std::string out;
  const auto rule = [&] {
    out += '+';
    for (std::size_t w : width) {
      out.append(w + 2, '-');
      out += '+';
    }
    out += '\n';
  };
  const auto line = [&](const std::vector<std::string>& cells) {
    out += '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t pad = width[c] - cells[c].size();
      out += ' ';
      if (c != 0) out.append(pad, ' ');
      out += cells[c];
      if (c == 0) out.append(pad, ' ');
      out += " |";
    }
    out += '\n';
  };

  if (!title_.empty()) {
    out += title_;
    out += '\n';
  }
  rule();
  line(header_);
  rule();
  for (const Row& row : rows_) {
    if (row.separator)
      rule();
    else
      line(row.cells);
  }
  rule();
  return out;
}

}  // namespace rsp::util
