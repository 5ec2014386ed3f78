// Ablation A3: toolchain throughput (google-benchmark).
//
// Measures the speed of the pieces a user iterates with during design space
// exploration: kernel unrolling, mapping, scheduling per architecture
// class, exact measurement and its per-kernel timing profile, legality
// checking, cycle simulation, and the fast performance estimate that makes
// the exploration loop cheap.
#include <benchmark/benchmark.h>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "core/estimate.hpp"
#include "core/evaluator.hpp"
#include "ir/unroll.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"

namespace {

using namespace rsp;

const kernels::Workload& workload(int index) {
  static const std::vector<kernels::Workload> suite = kernels::paper_suite();
  return suite[static_cast<std::size_t>(index) % suite.size()];
}

void BM_Unroll(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ir::UnrolledGraph u(w.kernel);
    benchmark::DoNotOptimize(u.size());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_Unroll)->DenseRange(0, 8);

void BM_Map(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  for (auto _ : state) {
    sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
    benchmark::DoNotOptimize(p.size());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_Map)->DenseRange(0, 8);

void BM_ScheduleBase(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const arch::Architecture a = arch::base_architecture();
  for (auto _ : state) {
    auto ctx = s.schedule(p, a);
    benchmark::DoNotOptimize(ctx.length());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_ScheduleBase)->DenseRange(0, 8);

void BM_ScheduleRsp(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const arch::Architecture a = arch::rsp_architecture(2);
  for (auto _ : state) {
    auto ctx = s.schedule(p, a);
    benchmark::DoNotOptimize(ctx.length());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_ScheduleRsp)->DenseRange(0, 8);

// DSE step 5's cost per (survivor, kernel): the real run and the
// stall-free length, measured from issue cycles alone. The kernel's timing
// profile is built once outside the loop, as prepare_kernel does, so the
// stall-free memo is warm after the first iteration and the loop times the
// real run plus a memo hit.
void BM_Measure(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const sched::TimingProfile profile(p);
  const arch::Architecture a = arch::rsp_architecture(2);
  for (auto _ : state) {
    auto m = core::measure_perf(s, profile, a);
    benchmark::DoNotOptimize(m.perf.stalls);
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_Measure)->DenseRange(0, 8);

// The one-time cost per kernel that BM_Measure leaves out: validation, the
// priority sort and the flattening.
void BM_TimingProfile(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  for (auto _ : state) {
    const sched::TimingProfile profile(p);
    benchmark::DoNotOptimize(profile.size());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_TimingProfile)->DenseRange(0, 8);

void BM_Legality(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const auto ctx = s.schedule(p, arch::rsp_architecture(2));
  for (auto _ : state) {
    auto rep = analysis::check_legality(ctx);
    benchmark::DoNotOptimize(rep.ok);
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_Legality)->DenseRange(0, 8);

void BM_Simulate(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const auto ctx = s.schedule(p, arch::rsp_architecture(2));
  const sim::Machine machine;
  for (auto _ : state) {
    ir::Memory mem;
    w.setup(mem);
    auto result = machine.run(ctx, mem);
    benchmark::DoNotOptimize(result.stats.pe_issues);
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_Simulate)->DenseRange(0, 8);

void BM_FastEstimate(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const auto base_ctx = s.schedule(p, arch::base_architecture());
  const arch::Architecture target = arch::rsp_architecture(1);
  for (auto _ : state) {
    auto est = core::estimate_performance(base_ctx, target);
    benchmark::DoNotOptimize(est.estimated_cycles());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_FastEstimate)->DenseRange(0, 8);

// The per-point cost the DSE sweep pays: the kernel's profile is built once
// outside the loop, as Explorer::explore does.
void BM_ProfileEstimate(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const core::EstimateProfile profile(
      s.schedule(p, arch::base_architecture()));
  const arch::Architecture target = arch::rsp_architecture(1);
  for (auto _ : state) {
    auto est = profile.estimate(target);
    benchmark::DoNotOptimize(est.estimated_cycles());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_ProfileEstimate)->DenseRange(0, 8);

}  // namespace

BENCHMARK_MAIN();
