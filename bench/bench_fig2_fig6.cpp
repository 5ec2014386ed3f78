// Regenerates paper Figures 2 and 6 (and the Fig. 3 sizing claim):
// the loop-pipelined schedule of an order-4 matrix multiplication on a 4×4
// array, first with per-PE multipliers (Fig. 2), then with shared 2-stage
// pipelined multipliers (Fig. 6). The headline: un-pipelined execution
// peaks at 8 concurrent multiplications, while the pipelined schedule fits
// 4 shared multipliers with zero stalls.
#include <iostream>
#include <memory>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "bench_common.hpp"
#include "core/evaluator.hpp"
#include "kernels/matmul.hpp"
#include "sched/mapper.hpp"
#include "sched/pretty.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"

int main() {
  using namespace rsp;
  bench::print_header("Figures 2/6: matrix multiplication of order 4, loop "
                      "pipelining");

  const kernels::Workload w = kernels::make_matmul(4);
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram program =
      mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler scheduler;

  // ---- Fig. 2: base array, every PE owns a multiplier ----
  const arch::Architecture base = arch::base_architecture(4, 4);
  const sched::ConfigurationContext fig2 = scheduler.schedule(program, base);
  analysis::require_legal(fig2);
  std::cout << "Fig. 2 — base schedule (rows = array columns):\n"
            << render_schedule(fig2) << "cycles: " << fig2.length()
            << "  |  peak concurrent multiplications: "
            << fig2.max_critical_issues_per_cycle()
            << "  (paper: 8 multipliers needed, Fig. 3)\n\n";

  // ---- Fig. 6: shared multipliers pipelined into two stages ----
  const arch::Architecture rsp =
      arch::custom_architecture("RSP-2stage", 4, 4, 1, 0, 2);  // 4 units
  const sched::ConfigurationContext fig6 = scheduler.schedule(program, rsp);
  analysis::require_legal(fig6);
  const std::shared_ptr<const sched::TimingProfile> profile =
      program.timing_profile();
  const sched::PerfPoint perf =
      core::measure_perf(scheduler, *profile, rsp).perf;
  std::cout << "Fig. 6 — 4 shared 2-stage multipliers (1*/2* = stages):\n"
            << render_schedule(fig6) << "cycles: " << fig6.length()
            << "  |  RS stalls: " << perf.stalls
            << "  (paper: only 4 multipliers, no stall)\n\n";

  // ---- Fig. 3 claim: the un-pipelined design needs twice the units ----
  const sched::PerfPoint rs4 =
      core::measure_perf(scheduler, *profile,
                         arch::custom_architecture("RS-4u", 4, 4, 1, 0, 1))
          .perf;
  const sched::PerfPoint rs8 =
      core::measure_perf(scheduler, *profile,
                         arch::custom_architecture("RS-8u", 4, 4, 2, 0, 1))
          .perf;
  util::Table t({"Design", "multipliers", "cycles", "stalls",
                 "peak issue demand"});
  auto peak = [&](const arch::Architecture& a) {
    return scheduler.schedule(program, a).max_critical_issues_per_cycle();
  };
  t.add_row({"Base (per-PE)", "16", std::to_string(fig2.length()), "-",
             std::to_string(fig2.max_critical_issues_per_cycle())});
  t.add_row({"RS, 2/row", "8", std::to_string(rs8.cycles),
             std::to_string(rs8.stalls),
             std::to_string(peak(arch::custom_architecture("RS8", 4, 4, 2, 0, 1)))});
  t.add_row({"RS, 1/row", "4", std::to_string(rs4.cycles),
             std::to_string(rs4.stalls),
             std::to_string(peak(arch::custom_architecture("RS4", 4, 4, 1, 0, 1)))});
  t.add_row({"RSP, 1/row (2-stage)", "4", std::to_string(perf.cycles),
             std::to_string(perf.stalls),
             std::to_string(fig6.max_critical_issues_per_cycle())});
  std::cout << t.render()
            << "\nThe base schedule's intrinsic demand peaks at 8 concurrent"
               " multiplications\n(paper Fig. 3: 8 multipliers for 16 PEs);"
               " with the 2-stage pipelined multiplier\nthe issuing PE"
               " occupies both stages, the column bursts destagger, and the"
               "\npeak falls to 4 — half the units sustain the loop with no"
               " stall (Fig. 6).\nOur explicit bus model serialises operand"
               " loads, so absolute cycle counts are\nlonger than the"
               " figure's idealised 8-cycle window; the structure matches.\n";
  return 0;
}
