#include <gtest/gtest.h>

#include <cmath>

#include "arch/presets.hpp"
#include "synth/paper_reference.hpp"
#include "synth/synthesis.hpp"
#include "util/error.hpp"

namespace rsp::synth {
namespace paper {

// Print a Table 2 row by its architecture name. Without this gtest dumps the
// row's raw bytes, which include the heap address of the name string, so the
// registered test names would change from one process to the next.
void PrintTo(const SynthesisRow& row, std::ostream* os) {
  *os << ::testing::PrintToString(row.arch);
}

}  // namespace paper

namespace {

// -------------------------------------------------------------- components
TEST(Components, Table1Values) {
  const ComponentLibrary lib;
  EXPECT_EQ(lib.base_pe().area_slices, 910);
  EXPECT_EQ(lib.base_pe().delay_ns, 25.6);
  EXPECT_EQ(lib.component(arch::Resource::kAlu).area_slices, 253);
  EXPECT_EQ(lib.component(arch::Resource::kArrayMultiplier).delay_ns, 19.7);
  EXPECT_EQ(lib.component(arch::Resource::kShiftLogic).area_slices, 156);
  EXPECT_EQ(lib.component(arch::Resource::kMultiplexer).delay_ns, 1.3);
}

TEST(Components, SharedPePathIsMuxAluShift) {
  const ComponentLibrary lib;
  const double expected =
      lib.component(arch::Resource::kMultiplexer).delay_ns +
      lib.component(arch::Resource::kAlu).delay_ns +
      lib.component(arch::Resource::kShiftLogic).delay_ns;
  EXPECT_DOUBLE_EQ(lib.shared_pe().delay_ns, expected);  // 15.3 ns
}

TEST(Components, BusSwitchMeasuredPoints) {
  const ComponentLibrary lib;
  EXPECT_EQ(lib.bus_switch(1).area_slices, 10);
  EXPECT_EQ(lib.bus_switch(2).area_slices, 34);
  EXPECT_EQ(lib.bus_switch(3).area_slices, 55);
  EXPECT_EQ(lib.bus_switch(4).area_slices, 68);
  EXPECT_EQ(lib.bus_switch(4).delay_ns, 2.0);
  EXPECT_EQ(lib.bus_switch(0).area_slices, 0);
  // Extrapolation is monotone.
  EXPECT_GT(lib.bus_switch(6).area_slices, lib.bus_switch(4).area_slices);
  EXPECT_GT(lib.bus_switch(6).delay_ns, lib.bus_switch(4).delay_ns);
}

TEST(Components, WireLoadMonotoneInUnits) {
  const ComponentLibrary lib;
  double prev = 0.0;
  for (int units : {4, 8, 12, 16, 24, 32, 40}) {
    const double rs = lib.wire_load_ns(units, false);
    EXPECT_GE(rs, prev);
    prev = rs;
  }
  EXPECT_EQ(lib.wire_load_ns(0, false), 0.0);
}

TEST(Components, BusSwitchCostViaComponentThrows) {
  const ComponentLibrary lib;
  EXPECT_THROW(lib.component(arch::Resource::kBusSwitch),
               InvalidArgumentError);
}

// ------------------------------------------------------------- area model
class AreaVsPaper : public ::testing::TestWithParam<paper::SynthesisRow> {};

TEST_P(AreaVsPaper, Within2PercentOfTable2) {
  const paper::SynthesisRow row = GetParam();
  const AreaModel model;
  arch::Architecture a = arch::base_architecture();
  if (row.arch != "Base") {
    const int variant = row.arch.back() - '0';
    a = row.arch[1] == 'S' && row.arch[2] == 'P'
            ? arch::rsp_architecture(variant)
            : arch::rs_architecture(variant);
  }
  const double measured = model.synthesized(a);
  EXPECT_NEAR(measured, row.array_area, 0.02 * row.array_area)
      << a.name << ": measured " << measured << " vs paper "
      << row.array_area;
}

INSTANTIATE_TEST_SUITE_P(Table2, AreaVsPaper,
                         ::testing::ValuesIn(paper::table2()),
                         [](const auto& info) {
                           std::string n = info.param.arch;
                           for (char& c : n)
                             if (c == '#') c = '_';
                           return n;
                         });

TEST(AreaModel, Equation2ConstraintHoldsForAllPaperDesigns) {
  const AreaModel model;
  for (const arch::Architecture& a : arch::standard_suite()) {
    if (!a.shares_multiplier()) continue;
    EXPECT_TRUE(model.satisfies_cost_constraint(a)) << a.name;
  }
}

TEST(AreaModel, MoreUnitsMoreArea) {
  const AreaModel model;
  double prev = 0.0;
  for (int v = 1; v <= 4; ++v) {
    const double area = model.synthesized(arch::rs_architecture(v));
    EXPECT_GT(area, prev);
    prev = area;
  }
  // RSP adds pipeline registers on top of RS.
  for (int v = 1; v <= 4; ++v)
    EXPECT_GT(model.synthesized(arch::rsp_architecture(v)),
              model.synthesized(arch::rs_architecture(v)));
}

TEST(AreaModel, ReductionPercentSignsMatchPaper) {
  const AreaModel model;
  for (const arch::Architecture& a : arch::standard_suite()) {
    if (!a.shares_multiplier()) continue;
    EXPECT_GT(model.reduction_percent(a), 0.0) << a.name;  // always smaller
  }
}

// ------------------------------------------------------------ clock model
class ClockVsPaper : public ::testing::TestWithParam<paper::SynthesisRow> {};

TEST_P(ClockVsPaper, MatchesTable2Within50ps) {
  const paper::SynthesisRow row = GetParam();
  const ClockModel model;
  arch::Architecture a = arch::base_architecture();
  if (row.arch != "Base") {
    const int variant = row.arch.back() - '0';
    a = row.arch[2] == 'P' ? arch::rsp_architecture(variant)
                           : arch::rs_architecture(variant);
  }
  EXPECT_NEAR(model.clock_ns(a), row.clock, 0.05) << a.name;
}

INSTANTIATE_TEST_SUITE_P(Table2, ClockVsPaper,
                         ::testing::ValuesIn(paper::table2()),
                         [](const auto& info) {
                           std::string n = info.param.arch;
                           for (char& c : n)
                             if (c == '#') c = '_';
                           return n;
                         });

TEST(ClockModel, RsSlowerRspFasterThanBase) {
  const ClockModel model;
  const double base = model.clock_ns(arch::base_architecture());
  for (int v = 1; v <= 4; ++v) {
    EXPECT_GT(model.clock_ns(arch::rs_architecture(v)), base) << "RS#" << v;
    EXPECT_LT(model.clock_ns(arch::rsp_architecture(v)), base) << "RSP#" << v;
  }
}

TEST(ClockModel, StageSweepSaturatesAtPrimitivePath) {
  // Beyond 2 stages the mux+ALU+shift path (15.3 ns) dominates: deeper
  // pipelining buys nothing — the reason the paper stops at 2 stages.
  const ClockModel model;
  const double two = model.clock_ns(arch::rsp_architecture(1, 8, 8, 2));
  const double three = model.clock_ns(arch::rsp_architecture(1, 8, 8, 3));
  const double four = model.clock_ns(arch::rsp_architecture(1, 8, 8, 4));
  EXPECT_DOUBLE_EQ(two, three);
  EXPECT_DOUBLE_EQ(three, four);
}

TEST(ClockModel, MultStageShrinksWithStages) {
  const ClockModel model;
  EXPECT_DOUBLE_EQ(model.mult_stage_ns(1), 19.7);
  EXPECT_NEAR(model.mult_stage_ns(2), 19.7 / 2 + 0.5, 1e-9);
  EXPECT_LT(model.mult_stage_ns(4), model.mult_stage_ns(2));
  EXPECT_THROW(model.mult_stage_ns(0), InvalidArgumentError);
}

// -------------------------------------------------------- synthesis model
TEST(SynthesisModel, ReportFieldsConsistent) {
  const SynthesisModel model;
  const SynthesisReport base = model.report(arch::base_architecture());
  EXPECT_EQ(base.arch_name, "Base");
  EXPECT_EQ(base.switch_area, 0.0);
  EXPECT_EQ(base.area_reduction, 0.0);
  EXPECT_EQ(base.delay_reduction, 0.0);

  const SynthesisReport rsp2 = model.report(arch::rsp_architecture(2));
  EXPECT_EQ(rsp2.pe_area, 489);
  EXPECT_EQ(rsp2.switch_area, 34);
  EXPECT_NEAR(rsp2.pe_delay, 15.3, 1e-9);
  EXPECT_GT(rsp2.delay_reduction, 30.0);
}

// --------------------------------------------------------- paper reference
TEST(PaperReference, LookupAndShape) {
  EXPECT_EQ(paper::table1().size(), 5u);
  EXPECT_EQ(paper::table2().size(), 9u);
  EXPECT_EQ(paper::table2_row("RSP#2").clock, 17.26);
  EXPECT_THROW(paper::table2_row("XX"), NotFoundError);
  EXPECT_EQ(paper::table4().size(), 5u);
  EXPECT_EQ(paper::table5().size(), 4u);
  for (const auto& rec : paper::table4()) ASSERT_EQ(rec.cells.size(), 9u);
  for (const auto& rec : paper::table5()) ASSERT_EQ(rec.cells.size(), 9u);
  EXPECT_EQ(paper::kernel_record("SAD").cells[5].delay_reduction_percent,
            35.7);
  EXPECT_THROW(paper::kernel_record("nope"), NotFoundError);
  EXPECT_EQ(paper::table3().size(), 9u);
}

TEST(PaperReference, EtEqualsCyclesTimesClockInPaperData) {
  // Internal consistency of the transcribed tables: every ET cell equals
  // cycles × the Table 2 clock of its architecture. Tolerance 0.35 ns: the
  // paper's own State/RSP#2 cell is printed as 396.68 although
  // 23 × 17.26 = 396.98 (rounding in the original).
  const char* arch_names[] = {"Base",  "RS#1",  "RS#2",  "RS#3", "RS#4",
                              "RSP#1", "RSP#2", "RSP#3", "RSP#4"};
  auto check = [&](const paper::KernelRecord& rec) {
    for (int i = 0; i < 9; ++i) {
      const double clock = paper::table2_row(arch_names[i]).clock;
      const auto& cell = rec.cells[static_cast<std::size_t>(i)];
      EXPECT_NEAR(cell.execution_time_ns, cell.cycles * clock, 0.35)
          << rec.kernel << " on " << arch_names[i];
    }
  };
  for (const auto& rec : paper::table4()) check(rec);
  for (const auto& rec : paper::table5()) check(rec);
}

}  // namespace
}  // namespace rsp::synth
