// Ablation A3: toolchain throughput (google-benchmark).
//
// Measures the speed of the pieces a user iterates with during design space
// exploration: kernel unrolling, mapping, the whole of step 1
// (dse::prepare_kernel), scheduling per architecture
// class, exact measurement and its per-kernel timing profile, legality
// checking and the full lint, the schedule grid `map` renders, cycle
// simulation, the fast performance estimate that makes the exploration
// loop cheap, and a warm hit on the memo tables the Service answers from.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "core/estimate.hpp"
#include "core/evaluator.hpp"
#include "dse/explorer.hpp"
#include "ir/unroll.hpp"
#include "kernels/registry.hpp"
#include "runtime/striped_cache.hpp"
#include "sched/mapper.hpp"
#include "sched/pretty.hpp"
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

// The whole of Fig. 7 step 1 for one kernel: map (unroll included), the
// timing profile, the base schedule through it and the legality check.
void BM_PrepareKernel(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const dse::KernelPrep prep = dse::prepare_kernel(w);
    benchmark::DoNotOptimize(prep.base_context.length());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_PrepareKernel)->DenseRange(0, 8);

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

// The full lint (every rule, findings collected) of the context
// BM_Legality checks: what a Service pays once per pair, on its first
// `lint`.
void BM_Lint(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const auto ctx = s.schedule(p, arch::rsp_architecture(2));
  for (auto _ : state) {
    auto rep = analysis::lint_context(ctx);
    benchmark::DoNotOptimize(rep.diagnostics.size());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_Lint)->DenseRange(0, 8);

// The `map` response's grid of the same context.
void BM_RenderSchedule(benchmark::State& state) {
  const kernels::Workload& w = workload(static_cast<int>(state.range(0)));
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  const auto ctx = s.schedule(p, arch::rsp_architecture(2));
  for (auto _ : state) {
    auto grid = sched::render_schedule(ctx);
    benchmark::DoNotOptimize(grid.size());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_RenderSchedule)->DenseRange(0, 8);

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

// Warm get_or_compute hits on a 256-key memo table striped over range(0)
// shards, from one and from four threads: the lock contention that
// api::Service's 16 stripes per table avoid.
void BM_MemoHit(benchmark::State& state) {
  using Memo = runtime::StripedMemoCache<std::shared_ptr<const int>>;
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (int i = 0; i < 256; ++i)
      k.push_back("gen:" + std::to_string(i) + "|RSP#4");
    return k;
  }();
  static std::unique_ptr<Memo> memo;
  if (state.thread_index() == 0) {
    memo = std::make_unique<Memo>(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < keys.size(); ++i)
      memo->insert(keys[i], std::make_shared<const int>(static_cast<int>(i)));
  }
  std::size_t next = static_cast<std::size_t>(state.thread_index()) * 64;
  for (auto _ : state) {
    auto hit = memo->get_or_compute(keys[next++ % keys.size()], [] {
      return std::shared_ptr<const int>();
    });
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " shards");
  if (state.thread_index() == 0) memo.reset();
}
BENCHMARK(BM_MemoHit)->Arg(1)->Arg(16)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
