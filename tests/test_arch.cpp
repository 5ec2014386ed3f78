#include <gtest/gtest.h>

#include "arch/array.hpp"
#include "arch/bus_switch.hpp"
#include "arch/config_cache.hpp"
#include "arch/presets.hpp"
#include "arch/resources.hpp"
#include "arch/sharing.hpp"
#include "util/error.hpp"

namespace rsp::arch {
namespace {

// ------------------------------------------------------------------ array
TEST(Array, ValidationRejectsDegenerateSpecs) {
  ArraySpec a;
  a.rows = 0;
  EXPECT_THROW(a.validate(), InvalidArgumentError);
  a = ArraySpec{};
  a.read_buses_per_row = 0;
  EXPECT_THROW(a.validate(), InvalidArgumentError);
  a = ArraySpec{};
  a.data_width_bits = 80;
  EXPECT_THROW(a.validate(), InvalidArgumentError);
  EXPECT_NO_THROW(ArraySpec{}.validate());
}

TEST(Array, LinearCoordRoundTrip) {
  ArraySpec a;
  a.rows = 3;
  a.cols = 5;
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 5; ++c) {
      const PeCoord pe{r, c};
      EXPECT_EQ(a.coord(a.linear(pe)), pe);
    }
}

TEST(Array, RouteClassification) {
  const ArraySpec a;  // 8×8
  EXPECT_EQ(a.route({2, 2}, {2, 2}), RouteKind::kSamePe);
  EXPECT_EQ(a.route({2, 2}, {2, 3}), RouteKind::kNeighbor);
  EXPECT_EQ(a.route({2, 2}, {3, 2}), RouteKind::kNeighbor);
  EXPECT_EQ(a.route({2, 2}, {2, 7}), RouteKind::kRowLine);
  EXPECT_EQ(a.route({0, 4}, {6, 4}), RouteKind::kColumnLine);
  EXPECT_EQ(a.route({0, 0}, {1, 1}), RouteKind::kNone);
}

// ---------------------------------------------------------------- sharing
TEST(Sharing, TotalUnitsMatchesEquation2Term) {
  const ArraySpec a;  // 8×8
  SharingPlan plan{Resource::kArrayMultiplier, 2, 1, 1};
  // n·shr + m·shc = 8·2 + 8·1 = 24 (paper RS#3).
  EXPECT_EQ(plan.total_units(a), 24);
}

TEST(Sharing, ReachableUnitsRowThenColumn) {
  const ArraySpec a;
  SharingPlan plan{Resource::kArrayMultiplier, 2, 1, 1};
  const auto units = plan.reachable_units(a, {3, 5});
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0], (SharedUnitId{SharedUnitId::Pool::kRow, 3, 0}));
  EXPECT_EQ(units[1], (SharedUnitId{SharedUnitId::Pool::kRow, 3, 1}));
  EXPECT_EQ(units[2], (SharedUnitId{SharedUnitId::Pool::kColumn, 5, 0}));
}

TEST(Sharing, ValidateRejectsBadPlans) {
  const ArraySpec a;
  SharingPlan negative{Resource::kArrayMultiplier, -1, 0, 1};
  EXPECT_THROW(negative.validate(a), InvalidArgumentError);
  SharingPlan zero_stages{Resource::kArrayMultiplier, 1, 0, 0};
  EXPECT_THROW(zero_stages.validate(a), InvalidArgumentError);
  SharingPlan alu_shared{Resource::kAlu, 1, 0, 1};
  EXPECT_THROW(alu_shared.validate(a), InvalidArgumentError);
  SharingPlan too_deep{Resource::kArrayMultiplier, 1, 0, 9};
  EXPECT_THROW(too_deep.validate(a), InvalidArgumentError);
}

TEST(Sharing, UnitIdToString) {
  EXPECT_EQ(to_string(SharedUnitId{SharedUnitId::Pool::kRow, 3, 1}),
            "row3.u1");
  EXPECT_EQ(to_string(SharedUnitId{SharedUnitId::Pool::kColumn, 0, 0}),
            "col0.u0");
}

// -------------------------------------------------------------- resources
TEST(Resources, PeSpecComposition) {
  const auto base = base_pe().resources();
  EXPECT_NE(std::find(base.begin(), base.end(), Resource::kArrayMultiplier),
            base.end());
  const auto shared = shared_pe().resources();
  EXPECT_EQ(std::find(shared.begin(), shared.end(),
                      Resource::kArrayMultiplier),
            shared.end());
  EXPECT_NE(std::find(shared.begin(), shared.end(), Resource::kBusSwitch),
            shared.end());
  const auto pipe = shared_pipelined_pe().resources();
  EXPECT_NE(std::find(pipe.begin(), pipe.end(), Resource::kPipelineRegister),
            pipe.end());
}

TEST(Resources, OnlyMultiplierSharableAndPipelinable) {
  EXPECT_TRUE(is_sharable(Resource::kArrayMultiplier));
  EXPECT_TRUE(is_pipelinable(Resource::kArrayMultiplier));
  EXPECT_FALSE(is_sharable(Resource::kAlu));
  EXPECT_FALSE(is_pipelinable(Resource::kShiftLogic));
}

// ---------------------------------------------------------------- presets
TEST(Presets, StandardSuiteMatchesPaperOrder) {
  const auto suite = standard_suite();
  ASSERT_EQ(suite.size(), 9u);
  EXPECT_EQ(suite[0].name, "Base");
  EXPECT_EQ(suite[1].name, "RS#1");
  EXPECT_EQ(suite[4].name, "RS#4");
  EXPECT_EQ(suite[5].name, "RSP#1");
  EXPECT_EQ(suite[8].name, "RSP#4");
  for (const auto& a : suite) EXPECT_NO_THROW(a.validate());
}

TEST(Presets, Fig8Topologies) {
  EXPECT_EQ(rs_architecture(1).sharing.units_per_row, 1);
  EXPECT_EQ(rs_architecture(1).sharing.units_per_col, 0);
  EXPECT_EQ(rs_architecture(3).sharing.units_per_col, 1);
  EXPECT_EQ(rs_architecture(4).sharing.units_per_row, 2);
  EXPECT_EQ(rs_architecture(4).sharing.units_per_col, 2);
  EXPECT_THROW(rs_architecture(5), InvalidArgumentError);
}

TEST(Presets, MultLatencyFollowsPipelining) {
  EXPECT_EQ(base_architecture().mult_latency(), 1);
  EXPECT_EQ(rs_architecture(2).mult_latency(), 1);
  EXPECT_EQ(rsp_architecture(2).mult_latency(), 2);
  EXPECT_EQ(rsp_architecture(2, 8, 8, 3).mult_latency(), 3);
}

TEST(Presets, ValidateCatchesInconsistentCompositions) {
  Architecture bad = rs_architecture(1);
  bad.pe.has_multiplier = true;  // shares AND keeps private multipliers
  EXPECT_THROW(bad.validate(), InvalidArgumentError);

  Architecture bad2 = base_architecture();
  bad2.pe.has_multiplier = false;  // nobody can multiply
  EXPECT_THROW(bad2.validate(), InvalidArgumentError);

  Architecture bad3 = rsp_architecture(1);
  bad3.pe.has_pipeline_regs = false;
  EXPECT_THROW(bad3.validate(), InvalidArgumentError);
}

TEST(Presets, CustomArchitectureRules) {
  const Architecture c = custom_architecture("X", 4, 4, 1, 1, 2);
  EXPECT_TRUE(c.pipelines_multiplier());
  EXPECT_EQ(c.sharing.total_units(c.array), 8);
  // Pipelining without sharing is outside the template.
  EXPECT_THROW(custom_architecture("Y", 4, 4, 0, 0, 2),
               InvalidArgumentError);
  // No sharing and no pipelining = base-style.
  EXPECT_FALSE(custom_architecture("Z", 4, 4, 0, 0, 1).shares_multiplier());
}

// ------------------------------------------------------------- bus switch
TEST(BusSwitch, SelectBitsGrowLogarithmically) {
  EXPECT_EQ(BusSwitchSpec{0}.select_bits(), 0);
  BusSwitchSpec one;
  one.reachable_units = 1;
  EXPECT_EQ(one.select_bits(), 1);
  BusSwitchSpec three;
  three.reachable_units = 3;
  EXPECT_EQ(three.select_bits(), 2);
  BusSwitchSpec four;
  four.reachable_units = 4;
  EXPECT_EQ(four.select_bits(), 3);
}

TEST(BusSwitch, DerivedFromPlan) {
  const ArraySpec a;
  const SharingPlan plan{Resource::kArrayMultiplier, 2, 2, 2};
  const BusSwitchSpec sw = make_bus_switch(plan, a.data_width_bits);
  EXPECT_EQ(sw.reachable_units, 4);
  EXPECT_EQ(sw.operand_width_bits, 16);
}

// ----------------------------------------------------------- config cache
TEST(ConfigCache, StorageAndBounds) {
  const ArraySpec a;
  ConfigCache cache(a, 16);
  EXPECT_EQ(cache.context_length(), 16);
  cache.word({1, 2}, 3).opcode = 7;
  EXPECT_EQ(cache.word({1, 2}, 3).opcode, 7);
  EXPECT_THROW(cache.word({9, 0}, 0), InvalidArgumentError);
  EXPECT_THROW(cache.word({0, 0}, 16), InvalidArgumentError);
  EXPECT_THROW(ConfigCache(a, 0), InvalidArgumentError);
}

TEST(ConfigCache, TotalBitsScalesWithSwitchComplexity) {
  const ArraySpec a;
  ConfigCache cache(a, 8);
  const SharingPlan none{Resource::kArrayMultiplier, 0, 0, 1};
  const SharingPlan four{Resource::kArrayMultiplier, 2, 2, 2};
  EXPECT_LT(cache.total_bits(none), cache.total_bits(four));
  // 8×8 PEs × 8 words × word bits.
  EXPECT_EQ(cache.total_bits(none),
            64 * 8 * ConfigCache::word_bits(0));
}

}  // namespace
}  // namespace rsp::arch
