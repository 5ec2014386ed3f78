#include "sched/pretty.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace rsp::sched {

namespace {

// Cycles the grid shows.
constexpr int kMaxGridCycles = 64;

// One symbol in one grid cell. `cell` is column-major (col * cycles +
// cycle); `symbol` is an ir::OpKind, or -s for pipeline stage s ("s*").
struct CellSymbol {
  std::size_t cell;
  int symbol;
};

void append_symbol(std::string& text, int symbol) {
  if (symbol < 0) {
    text += std::to_string(-symbol);
    text += '*';
  } else {
    text += ir::op_symbol(static_cast<ir::OpKind>(symbol));
  }
}

}  // namespace

std::string render_schedule(const ConfigurationContext& context) {
  const int cycles = std::max(std::min(context.length(), kMaxGridCycles), 0);
  const bool pipelined = context.architecture().pipelines_multiplier();
  const int stages = context.architecture().mult_latency();
  const int cols = context.architecture().array.cols;
  const auto cell_of = [cycles](int col, int cycle) {
    return static_cast<std::size_t>(col) * static_cast<std::size_t>(cycles) +
           static_cast<std::size_t>(cycle);
  };

  // Every (cell, symbol) in op order, then grouped by cell; the stable sort
  // keeps each cell's symbols in op order.
  std::vector<CellSymbol> entries;
  entries.reserve(context.ops().size());
  for (const ScheduledOp& op : context.ops()) {
    if (ir::is_critical_op(op.kind) && pipelined) {
      for (int s = 0; s < stages && op.cycle + s < cycles; ++s)
        entries.push_back({cell_of(op.pe.col, op.cycle + s), -(s + 1)});
    } else if (op.cycle < cycles) {
      entries.push_back(
          {cell_of(op.pe.col, op.cycle), static_cast<int>(op.kind)});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const CellSymbol& x, const CellSymbol& y) {
                     return x.cell < y.cell;
                   });

  std::vector<std::string> header = {"col#"};
  for (int t = 0; t < cycles; ++t) header.push_back(std::to_string(t + 1));
  util::Table table(std::move(header));

  auto next = entries.begin();
  for (int col = 0; col < cols; ++col) {
    std::vector<std::string> row;
    row.reserve(static_cast<std::size_t>(cycles) + 1);
    row.push_back(std::to_string(col + 1));
    const auto col_first = next;
    for (int t = 0; t < cycles; ++t) {
      // The cell's symbols, each once, in order of first appearance.
      std::string text;
      const auto first = next;
      for (; next != entries.end() && next->cell == cell_of(col, t); ++next) {
        const int symbol = next->symbol;
        if (std::any_of(first, next, [symbol](const CellSymbol& e) {
              return e.symbol == symbol;
            }))
          continue;
        if (!text.empty()) text += ',';
        append_symbol(text, symbol);
      }
      row.push_back(std::move(text));
    }
    if (next != col_first) table.add_row(std::move(row));
  }

  std::string out = table.render();
  if (context.length() > kMaxGridCycles)
    out += "... (" + std::to_string(context.length() - kMaxGridCycles) +
           " more cycles truncated)\n";
  return out;
}

}  // namespace rsp::sched
