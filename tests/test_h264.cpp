// The H.264 extension suite (paper §6 future work): mapping, legality,
// simulation-vs-golden across all nine architectures, and the workload-
// class observations that motivated the extension.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "core/evaluator.hpp"
#include "kernels/h264.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"

namespace rsp::kernels {
namespace {

TEST(H264, SuiteComposition) {
  const auto suite = h264_suite();
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0].name, "H264-SAD4x4");
  EXPECT_EQ(suite[3].name, "H264-DCT4x4");
}

TEST(H264, MultiplierFreeKernels) {
  EXPECT_EQ(make_h264_sad4x4().kernel.mults_per_iteration(), 0);
  EXPECT_EQ(make_h264_satd4x4().kernel.mults_per_iteration(), 0);
  EXPECT_EQ(make_h264_idct4x4().kernel.mults_per_iteration(), 0);
  EXPECT_EQ(make_h264_halfpel().kernel.mults_per_iteration(), 2);
}

class H264OnArch
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(H264OnArch, SimulatorMatchesGolden) {
  const auto [kernel_idx, arch_idx] = GetParam();
  const Workload w = h264_suite()[static_cast<std::size_t>(kernel_idx)];
  const arch::Architecture a =
      arch::standard_suite()[static_cast<std::size_t>(arch_idx)];

  const sched::LoopPipeliner mapper(w.array);
  const sched::ContextScheduler scheduler;
  const sched::ConfigurationContext ctx =
      scheduler.schedule(mapper.map(w.kernel, w.hints, w.reduction), a);
  analysis::require_legal(ctx);

  ir::Memory mem, golden;
  w.setup(mem);
  w.setup(golden);
  sim::Machine().run(ctx, mem);
  w.golden(golden);
  EXPECT_TRUE(mem == golden) << w.name << " on " << a.name;
}

INSTANTIATE_TEST_SUITE_P(Suite, H264OnArch,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 9)));

TEST(H264, MultiplierFreeKernelsGetFullClockGain) {
  // Like the paper's SAD observation (§5.3): kernels without
  // multiplications convert the whole RSP clock gain into speedup.
  const core::RspEvaluator evaluator;
  for (const Workload& w :
       {make_h264_sad4x4(), make_h264_satd4x4(), make_h264_idct4x4()}) {
    const sched::LoopPipeliner mapper(w.array);
    const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
    const auto rows = evaluator.evaluate_suite(p, arch::standard_suite());
    EXPECT_EQ(rows[5].cycles, rows[0].cycles) << w.name;  // RSP#1 == base
    EXPECT_NEAR(rows[5].delay_reduction_percent, 35.7, 0.3) << w.name;
  }
}

TEST(H264, HalfPelStallsOnlyOnAggressiveSharing) {
  const Workload w = make_h264_halfpel();
  const core::RspEvaluator evaluator;
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  EXPECT_EQ(evaluator.evaluate(p, arch::rs_architecture(2)).stalls, 0);
  EXPECT_EQ(evaluator.evaluate(p, arch::rsp_architecture(2)).stalls, 0);
}

TEST(H264, GoldenModelsSelfConsistent) {
  // Golden sanity on tiny closed-form cases: DCT of a constant block.
  const Workload w = make_h264_idct4x4();
  ir::Memory m;
  m.set("blk", std::vector<std::int64_t>(256, 1));
  m.allocate("out", 256);
  w.golden(m);
  // Row [1 1 1 1] → y = [4, 0, 0, 0].
  EXPECT_EQ(m.read("out", 0), 4);
  EXPECT_EQ(m.read("out", 1), 0);
  EXPECT_EQ(m.read("out", 2), 0);
  EXPECT_EQ(m.read("out", 3), 0);
}

}  // namespace
}  // namespace rsp::kernels
