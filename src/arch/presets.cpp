#include "arch/presets.hpp"

#include "util/error.hpp"

namespace rsp::arch {

namespace {

/// shr/shc of the paper's four sharing topologies (Fig. 8).
struct Topology {
  int per_row;
  int per_col;
};

Topology topology(int variant) {
  switch (variant) {
    case 1:
      return {1, 0};
    case 2:
      return {2, 0};
    case 3:
      return {2, 1};
    case 4:
      return {2, 2};
    default:
      throw InvalidArgumentError("sharing variant must be in 1..4, got " +
                                 std::to_string(variant));
  }
}

ArraySpec make_array(int rows, int cols) {
  ArraySpec array;
  array.rows = rows;
  array.cols = cols;
  array.validate();
  return array;
}

}  // namespace

void Architecture::validate() const {
  if (!shares_multiplier() && pipelines_multiplier())
    throw InvalidArgumentError(
        "pipelining without sharing is not part of the explored template");
  sharing.validate(array);
}

Architecture base_architecture(int rows, int cols) {
  Architecture a;
  a.name = "Base";
  a.array = make_array(rows, cols);
  a.sharing = SharingPlan{0, 0, 1};
  a.validate();
  return a;
}

Architecture rs_architecture(int variant, int rows, int cols) {
  const Topology t = topology(variant);
  Architecture a;
  a.name = "RS#" + std::to_string(variant);
  a.array = make_array(rows, cols);
  a.sharing = SharingPlan{t.per_row, t.per_col, 1};
  a.validate();
  return a;
}

Architecture rsp_architecture(int variant, int rows, int cols, int stages) {
  if (stages < 2)
    throw InvalidArgumentError("an RSP architecture needs >= 2 stages");
  const Topology t = topology(variant);
  Architecture a;
  a.name = "RSP#" + std::to_string(variant);
  a.array = make_array(rows, cols);
  a.sharing = SharingPlan{t.per_row, t.per_col, stages};
  a.validate();
  return a;
}

Architecture custom_architecture(std::string name, int rows, int cols,
                                 int units_per_row, int units_per_col,
                                 int stages) {
  Architecture a;
  a.name = std::move(name);
  a.array = make_array(rows, cols);
  a.sharing = SharingPlan{units_per_row, units_per_col, stages};
  a.validate();
  return a;
}

std::vector<Architecture> standard_suite(int rows, int cols) {
  std::vector<Architecture> out;
  out.push_back(base_architecture(rows, cols));
  for (int v = 1; v <= 4; ++v) out.push_back(rs_architecture(v, rows, cols));
  for (int v = 1; v <= 4; ++v) out.push_back(rsp_architecture(v, rows, cols));
  return out;
}

}  // namespace rsp::arch
