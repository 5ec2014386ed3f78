// Property-based sweeps: randomly generated kernels are mapped, scheduled
// on every architecture class, legality-checked, and executed on the cycle
// simulator against the reference interpreter. This fuzzes the whole
// mapper → scheduler → simulator pipeline far beyond the nine paper
// kernels.
#include <gtest/gtest.h>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "core/evaluator.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "kernels/workload.hpp"
#include "sched/mapper.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "arch/bitstream.hpp"
#include "core/estimate.hpp"
#include "rtl/generate.hpp"
#include "util/rng.hpp"

namespace rsp {
namespace {

struct RandomKernel {
  ir::LoopKernel kernel;
  sched::MappingHints hints;
  sched::ReductionSpec reduction;
  std::int64_t input_size;
};

/// Builds a random but well-formed kernel: a few loads, a random DAG of
/// arithmetic over them, an optional accumulator, and a store.
RandomKernel random_kernel(util::Rng& rng, const arch::ArraySpec& array) {
  ir::GraphBuilder b;
  std::vector<ir::NodeId> values;

  const int n_loads = static_cast<int>(rng.uniform(1, 3));
  const std::int64_t trips = rng.uniform(3, 24);
  for (int i = 0; i < n_loads; ++i) {
    const std::int64_t stride = rng.uniform(1, 2);
    const std::int64_t offset = rng.uniform(0, 4);
    values.push_back(b.load("in" + std::to_string(i),
                            [stride, offset](std::int64_t k) {
                              return stride * k + offset;
                            }));
  }
  if (rng.chance(0.5)) values.push_back(b.constant(rng.uniform(-9, 9)));

  const int n_ops = static_cast<int>(rng.uniform(2, 8));
  for (int i = 0; i < n_ops; ++i) {
    const auto pick = [&] {
      return values[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    };
    switch (rng.uniform(0, 4)) {
      case 0:
        values.push_back(b.add(pick(), pick()));
        break;
      case 1:
        values.push_back(b.sub(pick(), pick()));
        break;
      case 2:
        values.push_back(b.mult(pick(), pick()));
        break;
      case 3:
        values.push_back(b.abs(pick()));
        break;
      default:
        values.push_back(b.shift(pick(), static_cast<int>(rng.uniform(-2, 2))));
        break;
    }
  }

  sched::MappingHints hints;
  const int lane_options[] = {1, 2, 4, array.rows};
  hints.lanes = lane_options[rng.uniform(0, 3)];
  hints.stagger = static_cast<int>(rng.uniform(0, 3));
  hints.columns = static_cast<int>(rng.uniform(1, array.cols));

  sched::ReductionSpec reduction;
  if (rng.chance(0.4)) {
    // Accumulate with the PE-revisiting distance, then reduce globally.
    const int distance = hints.lanes * hints.columns;
    const ir::NodeId acc = b.accumulate(values.back(), 0, distance);
    reduction.scope = sched::ReductionSpec::Scope::kAll;
    reduction.source = acc;
    reduction.array = "out";
    reduction.index0 = 0;
  } else {
    hints.cycle_row_bands = rng.chance(0.5);
    b.store("out", [](std::int64_t k) { return k; }, values.back());
  }

  return RandomKernel{
      ir::LoopKernel("fuzz", b.take(), trips), hints, reduction,
      2 * trips + 8};
}

class RandomKernelSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomKernelSweep, LegalAndCorrectOnAllArchitectures) {
  util::Rng rng(0xFACE0000u + static_cast<unsigned>(GetParam()));
  const arch::ArraySpec array;  // 8×8
  const RandomKernel rk = random_kernel(rng, array);

  // Input environment.
  ir::Memory golden_mem;
  for (const ir::Node& n : rk.kernel.body().nodes())
    if (n.mem && n.kind == ir::OpKind::kLoad)
      golden_mem.set(n.mem->array,
                     kernels::deterministic_data(
                         n.mem->array + std::to_string(GetParam()),
                         static_cast<std::size_t>(rk.input_size), -50, 50));
  golden_mem.allocate("out", static_cast<std::size_t>(rk.input_size));

  // Golden = reference interpreter (+ manual reduction when enabled).
  const ir::UnrolledGraph unrolled(rk.kernel);
  ir::Memory interp_mem = golden_mem;
  const ir::InterpResult iresult =
      ir::interpret(unrolled, interp_mem, ir::DatapathMode::kWrap16);
  if (rk.reduction.enabled()) {
    // Sum of the accumulator's final value per chain (= per residue class
    // modulo the carried distance).
    const int distance = rk.hints.lanes * rk.hints.columns;
    std::int64_t total = 0;
    const std::int64_t trips = rk.kernel.trip_count();
    for (std::int64_t r = 0; r < std::min<std::int64_t>(distance, trips); ++r) {
      std::int64_t last = r;
      while (last + distance < trips) last += distance;
      total += iresult.values[static_cast<std::size_t>(
          unrolled.id_of(rk.reduction.source, last))];
    }
    // The mapper's reduction tree adds on the 16-bit datapath; modular
    // addition is associative, so wrapping the plain sum once is enough.
    interp_mem.write("out", 0, static_cast<std::int16_t>(
                                   static_cast<std::uint64_t>(total)));
  }

  const sched::LoopPipeliner mapper(array);
  const sched::PlacedProgram program =
      mapper.map(rk.kernel, unrolled, rk.hints, rk.reduction);
  const sched::ContextScheduler scheduler;

  for (const arch::Architecture& a : arch::standard_suite()) {
    const sched::ConfigurationContext ctx = scheduler.schedule(program, a);
    const analysis::LegalityReport rep = analysis::check_legality(ctx);
    ASSERT_TRUE(rep.ok) << a.name << ": " << rep.violations.front();

    ir::Memory sim_mem = golden_mem;
    sim::Machine machine(ir::DatapathMode::kWrap16);
    machine.run(ctx, sim_mem);
    ASSERT_TRUE(sim_mem == interp_mem)
        << "seed " << GetParam() << " on " << a.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelSweep, ::testing::Range(0, 25));

// ------------------------------------------------------- schedule algebra
class ArchPairProperty : public ::testing::TestWithParam<int> {};

TEST_P(ArchPairProperty, StallAccountingConsistent) {
  util::Rng rng(0xBEEF0000u + static_cast<unsigned>(GetParam()));
  const arch::ArraySpec array;
  const RandomKernel rk = random_kernel(rng, array);
  const sched::LoopPipeliner mapper(array);
  const sched::PlacedProgram p = mapper.map(rk.kernel, rk.hints, rk.reduction);
  const sched::ContextScheduler s;

  const sched::TimingProfile profile(p);

  const int base_len =
      s.schedule(p, arch::base_architecture()).length();
  for (int v = 1; v <= 4; ++v) {
    // RS with unlimited units = base length exactly.
    const sched::PerfPoint rs =
        core::measure_perf(s, profile, arch::rs_architecture(v)).perf;
    EXPECT_EQ(rs.nostall_cycles, base_len);
    EXPECT_GE(rs.stalls, 0);
    // RSP no-stall schedule is never shorter than the base.
    const sched::PerfPoint rsp =
        core::measure_perf(s, profile, arch::rsp_architecture(v)).perf;
    EXPECT_GE(rsp.nostall_cycles, base_len);
    EXPECT_GE(rsp.stalls, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchPairProperty, ::testing::Range(0, 15));

// -------------------------------------------------- estimator optimism
// Holds on these seeded random kernels; the estimate is not a bound in
// general (the oracle, bench/bench_dse_oracle.cpp, finds catalogue and
// generated kernels where it exceeds the exact cycles).
class EstimateProperty : public ::testing::TestWithParam<int> {};

TEST_P(EstimateProperty, FastEstimateNeverExceedsExactCycles) {
  util::Rng rng(0xCAFE0000u + static_cast<unsigned>(GetParam()));
  const arch::ArraySpec array;
  const RandomKernel rk = random_kernel(rng, array);
  const sched::LoopPipeliner mapper(array);
  const sched::PlacedProgram p = mapper.map(rk.kernel, rk.hints, rk.reduction);
  const sched::ContextScheduler s;
  const sched::ConfigurationContext base_ctx =
      s.schedule(p, arch::base_architecture());
  for (const arch::Architecture& a : arch::standard_suite()) {
    if (!a.shares_multiplier()) continue;
    const core::PerfEstimate est = core::estimate_performance(base_ctx, a);
    EXPECT_LE(est.estimated_cycles(), s.schedule(p, a).length())
        << "seed " << GetParam() << " on " << a.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimateProperty, ::testing::Range(0, 20));

// -------------------------------------------------------- RTL generation
class RtlProperty : public ::testing::TestWithParam<int> {};

TEST_P(RtlProperty, RandomTopologiesGenerateConsistentStructure) {
  util::Rng rng(0xD00D0000u + static_cast<unsigned>(GetParam()));
  const int rows = static_cast<int>(rng.uniform(2, 10));
  const int cols = static_cast<int>(rng.uniform(2, 10));
  const int upr = static_cast<int>(rng.uniform(0, 3));
  const int upc = static_cast<int>(rng.uniform(0, 2));
  const int stages = (upr + upc) > 0 ? static_cast<int>(rng.uniform(1, 3)) : 1;
  const arch::Architecture a = arch::custom_architecture(
      "fuzz", rows, cols, upr, upc, stages);
  const rtl::Design d = rtl::generate(a);
  const rtl::RtlStats st = rtl::stats_of(d);
  EXPECT_EQ(st.pe_instances, rows * cols);
  EXPECT_EQ(st.config_cache_instances, rows * cols);
  EXPECT_EQ(st.shared_multiplier_instances,
            a.shares_multiplier() ? a.sharing.total_units(a.array) : 0);
  // Emission never produces duplicate module definitions.
  const std::string v = d.emit();
  EXPECT_EQ(v.find("module rsp_pe ("), v.rfind("module rsp_pe ("));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtlProperty, ::testing::Range(0, 20));

// ------------------------------------------------------ bitstream fuzzing
class BitstreamProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitstreamProperty, RandomCachesRoundTrip) {
  util::Rng rng(0xB1750000u + static_cast<unsigned>(GetParam()));
  arch::ArraySpec array;
  array.rows = static_cast<int>(rng.uniform(1, 8));
  array.cols = static_cast<int>(rng.uniform(1, 8));
  const int length = static_cast<int>(rng.uniform(1, 40));
  const arch::SharingPlan plan{arch::Resource::kArrayMultiplier,
                               static_cast<int>(rng.uniform(0, 2)),
                               static_cast<int>(rng.uniform(0, 2)), 1};
  arch::ConfigCache cache(array, length);
  for (int r = 0; r < array.rows; ++r)
    for (int c = 0; c < array.cols; ++c)
      for (int t = 0; t < length; ++t) {
        arch::ConfigWord& w = cache.word({r, c}, t);
        w.opcode = static_cast<std::uint8_t>(rng.uniform(0, 10));
        w.src_a = static_cast<std::uint8_t>(rng.uniform(0, 4));
        w.src_b = static_cast<std::uint8_t>(rng.uniform(0, 4));
        w.shared_select = static_cast<std::uint8_t>(
            rng.uniform(0, plan.units_reachable_per_pe()));
        w.immediate = static_cast<std::int32_t>(rng.uniform(-32768, 32767));
        w.mem_access = rng.chance(0.3);
      }
  const auto bytes = arch::encode_bitstream(cache, plan);
  const arch::ConfigCache decoded = arch::decode_bitstream(bytes, plan);
  for (int r = 0; r < array.rows; ++r)
    for (int c = 0; c < array.cols; ++c)
      for (int t = 0; t < length; ++t)
        ASSERT_TRUE(decoded.word({r, c}, t) == cache.word({r, c}, t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitstreamProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace rsp
