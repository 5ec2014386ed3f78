#include <gtest/gtest.h>

#include "arch/presets.hpp"
#include "rtl/generate.hpp"
#include "rtl/verilog.hpp"
#include "util/error.hpp"

namespace rsp::rtl {
namespace {

// ---------------------------------------------------------------- verilog
TEST(Verilog, RangeRendering) {
  EXPECT_EQ(range_of(1), "");
  EXPECT_EQ(range_of(16), "[15:0] ");
  EXPECT_THROW(range_of(0), InvalidArgumentError);
}

TEST(Verilog, ModuleEmission) {
  Module m("leaf");
  m.port(PortDir::kInput, "a", 16)
      .port(PortDir::kOutput, "y", 16)
      .wire("t", 16)
      .assign("t", "a")
      .assign("y", "t");
  const std::string v = m.emit();
  EXPECT_NE(v.find("module leaf ("), std::string::npos);
  EXPECT_NE(v.find("input  wire [15:0] a,"), std::string::npos);
  EXPECT_NE(v.find("output wire [15:0] y"), std::string::npos);
  EXPECT_NE(v.find("assign y = t;"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, ValidationErrors) {
  EXPECT_THROW(Module(""), InvalidArgumentError);
  Module m("x");
  EXPECT_THROW(m.port(PortDir::kInput, "p", 0), InvalidArgumentError);
  EXPECT_THROW(m.instance(Instance{"", "i", {}}), InvalidArgumentError);
  Design d;
  d.add(Module("dup"));
  EXPECT_THROW(d.add(Module("dup")), InvalidArgumentError);
}

TEST(Verilog, InstanceEmission) {
  Module m("parent");
  m.port(PortDir::kInput, "clk");
  m.instance(Instance{"child", "u0", {{"clk", "clk"}, {"d", "1'b0"}}});
  const std::string v = m.emit();
  EXPECT_NE(v.find("child u0 ("), std::string::npos);
  EXPECT_NE(v.find(".clk(clk)"), std::string::npos);
  EXPECT_NE(v.find(".d(1'b0)"), std::string::npos);
}

// --------------------------------------------------------------- generate
TEST(Generate, BaseArchitectureStructure) {
  const Design d = generate(arch::base_architecture());
  const RtlStats s = stats_of(d);
  EXPECT_EQ(s.pe_instances, 64);
  EXPECT_EQ(s.config_cache_instances, 64);
  // Base: no shared multipliers at top level (they live inside the PEs),
  // no bus switch module at all.
  EXPECT_EQ(s.shared_multiplier_instances, 0);
  EXPECT_EQ(d.find("rsp_bus_switch"), nullptr);
  ASSERT_NE(d.find("rsp_pe"), nullptr);
  ASSERT_NE(d.find("rsp_array"), nullptr);
}

class GenerateSuite : public ::testing::TestWithParam<int> {};

TEST_P(GenerateSuite, SharedUnitCountMatchesFig8Topology) {
  const int variant = GetParam();
  for (bool pipelined : {false, true}) {
    const arch::Architecture a = pipelined
                                     ? arch::rsp_architecture(variant)
                                     : arch::rs_architecture(variant);
    const Design d = generate(a);
    const RtlStats s = stats_of(d);
    EXPECT_EQ(s.shared_multiplier_instances,
              a.sharing.total_units(a.array))
        << a.name;
    EXPECT_EQ(s.pe_instances, 64);
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, GenerateSuite, ::testing::Range(1, 5));

TEST(Generate, PipelinedMultiplierHasStageRegisters) {
  const std::string rsp = generate_verilog(arch::rsp_architecture(2));
  EXPECT_NE(rsp.find("stage [0:0]"), std::string::npos);  // 2 stages → 1 reg
  EXPECT_NE(rsp.find("always @(posedge clk)"), std::string::npos);
  const std::string rs = generate_verilog(arch::rs_architecture(2));
  EXPECT_EQ(rs.find("stage [0:"), std::string::npos);  // combinational
}

TEST(Generate, SharedPeExposesMultTaps) {
  const Design d = generate(arch::rs_architecture(1));
  const Module* pe = d.find("rsp_pe");
  ASSERT_NE(pe, nullptr);
  bool has_ma = false, has_mp = false;
  for (const Port& p : pe->ports()) {
    if (p.name == "mult_a" && p.dir == PortDir::kOutput) has_ma = true;
    if (p.name == "mult_p" && p.dir == PortDir::kInput && p.width == 32)
      has_mp = true;
  }
  EXPECT_TRUE(has_ma);
  EXPECT_TRUE(has_mp);
}

TEST(Generate, BasePeKeepsPrivateMultiplier) {
  const Design d = generate(arch::base_architecture());
  const Module* pe = d.find("rsp_pe");
  ASSERT_NE(pe, nullptr);
  bool has_private_mult = false;
  for (const Instance& inst : pe->instances())
    if (inst.module == "rsp_multiplier") has_private_mult = true;
  EXPECT_TRUE(has_private_mult);
  for (const Port& p : pe->ports()) EXPECT_NE(p.name, "mult_a");
}

TEST(Generate, TopHasRowBusPorts) {
  const std::string v = generate_verilog(arch::base_architecture());
  // 2 read buses + 1 write bus per row (Fig. 1b scheme).
  EXPECT_NE(v.find("rbus_r0_0"), std::string::npos);
  EXPECT_NE(v.find("rbus_r0_1"), std::string::npos);
  EXPECT_NE(v.find("wbus_r7_0"), std::string::npos);
  EXPECT_EQ(v.find("rbus_r0_2"), std::string::npos);
}

TEST(Generate, DeterministicOutput) {
  const std::string a = generate_verilog(arch::rsp_architecture(3));
  const std::string b = generate_verilog(arch::rsp_architecture(3));
  EXPECT_EQ(a, b);
}

TEST(Generate, AllNineArchitecturesEmit) {
  for (const arch::Architecture& a : arch::standard_suite()) {
    const std::string v = generate_verilog(a);
    EXPECT_GT(v.size(), 10000u) << a.name;
    EXPECT_NE(v.find("module rsp_array"), std::string::npos) << a.name;
  }
}

TEST(Generate, ColumnPoolUnitsAppearForVariant3) {
  const std::string v = generate_verilog(arch::rs_architecture(3));
  EXPECT_NE(v.find("u_mult_row0_u1"), std::string::npos);  // 2 per row
  EXPECT_NE(v.find("u_mult_col7_u0"), std::string::npos);  // 1 per column
  EXPECT_EQ(v.find("u_mult_col0_u1"), std::string::npos);
}

}  // namespace
}  // namespace rsp::rtl
