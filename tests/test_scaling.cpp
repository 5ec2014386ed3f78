// Template scalability: the RSP machinery must work on any rectangular
// geometry, not just the paper's 8×8 — mapper, scheduler, simulator, cost
// models and DSE on 4×4 .. 16×16 arrays, plus cost-model extrapolation
// beyond the calibrated bus-switch fan-out.
#include <gtest/gtest.h>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "core/evaluator.hpp"
#include "dse/explorer.hpp"
#include "kernels/matmul.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "synth/synthesis.hpp"

namespace rsp {
namespace {

class MatmulOrder : public ::testing::TestWithParam<int> {};

TEST_P(MatmulOrder, EndToEndOnMatchingArray) {
  const int n = GetParam();
  const kernels::Workload w = kernels::make_matmul(n);
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;

  for (const arch::Architecture& a :
       {arch::base_architecture(n, n),
        arch::custom_architecture("RS", n, n, 1, 0, 1),
        arch::custom_architecture("RSP", n, n, 1, 0, 2),
        arch::custom_architecture("RSP-cols", n, n, 0, 1, 2)}) {
    const sched::ConfigurationContext ctx = s.schedule(p, a);
    analysis::require_legal(ctx);
    ir::Memory mem, golden;
    w.setup(mem);
    w.setup(golden);
    sim::Machine().run(ctx, mem);
    w.golden(golden);
    EXPECT_TRUE(mem == golden) << "order " << n << " on " << a.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, MatmulOrder, ::testing::Values(2, 3, 4, 6,
                                                                8, 12, 16));

TEST(Scaling, CostModelsExtrapolateBeyondCalibration) {
  // 3 units/row + 3/col = 6 reachable per PE: past the measured 1..4 range.
  const arch::Architecture big =
      arch::custom_architecture("wide", 8, 8, 3, 3, 2);
  const synth::SynthesisModel model;
  EXPECT_GT(model.area(big), model.area(arch::rsp_architecture(4)));
  EXPECT_GT(model.clock_ns(big),
            model.clock_ns(arch::rsp_architecture(4)));
  // Still a valid architecture for scheduling.
  const kernels::Workload w = kernels::make_matmul(8);
  const sched::LoopPipeliner mapper(w.array);
  const sched::ContextScheduler s;
  const sched::ConfigurationContext ctx =
      s.schedule(mapper.map(w.kernel, w.hints, w.reduction), big);
  EXPECT_TRUE(analysis::check_legality(ctx).ok);
}

TEST(Scaling, AreaGrowsQuadraticallyClockStaysFlat) {
  const synth::SynthesisModel model;
  const double a4 = model.area(arch::base_architecture(4, 4));
  const double a8 = model.area(arch::base_architecture(8, 8));
  const double a16 = model.area(arch::base_architecture(16, 16));
  EXPECT_NEAR(a8 / a4, 4.0, 0.01);
  EXPECT_NEAR(a16 / a8, 4.0, 0.01);
  EXPECT_DOUBLE_EQ(model.clock_ns(arch::base_architecture(4, 4)),
                   model.clock_ns(arch::base_architecture(16, 16)));
}

TEST(Scaling, RectangularArraysWork) {
  // Non-square geometry: 4 rows × 8 columns.
  const arch::Architecture a = arch::custom_architecture("rect", 4, 8, 1, 0, 2);
  EXPECT_EQ(a.sharing.total_units(a.array), 4);
  const kernels::Workload w = kernels::make_matmul(4);
  // Kernel array is 4×4; geometry mismatch must be rejected.
  const sched::LoopPipeliner mapper(w.array);
  const sched::ContextScheduler s;
  EXPECT_THROW(s.schedule(mapper.map(w.kernel, w.hints, w.reduction), a),
               InvalidArgumentError);
  // But a 4×8 mapper placing into the first 4 columns works.
  const sched::LoopPipeliner wide_mapper(a.array);
  sched::MappingHints hints = w.hints;
  hints.columns = 4;
  const sched::PlacedProgram p =
      wide_mapper.map(w.kernel, hints, w.reduction);
  const sched::ConfigurationContext ctx = s.schedule(p, a);
  EXPECT_TRUE(analysis::check_legality(ctx).ok);
}

TEST(Scaling, DseOnSmallArray) {
  dse::ExplorerConfig config;
  config.max_units_per_row = 2;
  config.max_units_per_col = 1;
  config.max_stages = 2;
  arch::ArraySpec small;
  small.rows = 4;
  small.cols = 4;
  dse::Explorer explorer(small, config);
  const auto result = explorer.explore({kernels::make_matmul(4)});
  EXPECT_GE(result.candidates.size(), 8u);
  const dse::Candidate& best = result.best();
  EXPECT_TRUE(best.architecture.shares_multiplier());
}

TEST(Scaling, EvaluatorConsistentAcrossGeometries) {
  // DR% on a 4×4 RSP mirrors the 8×8 behaviour for a mult-free-tail kernel.
  const core::RspEvaluator ev;
  const kernels::Workload w = kernels::make_matmul(4);
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const auto base = ev.evaluate(p, arch::base_architecture(4, 4));
  const auto rsp = ev.evaluate(
      p, arch::custom_architecture("RSP", 4, 4, 1, 0, 2),
      base.execution_time_ns);
  EXPECT_GT(rsp.delay_reduction_percent, 20.0);
}

}  // namespace
}  // namespace rsp
