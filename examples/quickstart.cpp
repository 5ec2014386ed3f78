// Quickstart: the paper's running example end to end.
//
// Maps an order-4 matrix multiplication (paper eq. (1)) on a 4×4 array,
// prints the loop-pipelined schedule (paper Fig. 2), reschedules it with a
// 2-stage pipelined shared multiplier (paper Fig. 6), shows that the
// pipelined design needs half the multipliers, and verifies both schedules
// on the cycle-accurate simulator.
#include <iostream>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "ir/dot.hpp"
#include "kernels/matmul.hpp"
#include "sched/mapper.hpp"
#include "sched/pretty.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"

int main() {
  using namespace rsp;

  // 1. The kernel: Z[i][j] = C · Σ_k X[i][k]·Y[k][j], order 4.
  const kernels::Workload matmul = kernels::make_matmul(4, /*scale=*/2);
  std::cout << "Kernel: " << matmul.name << ", "
            << matmul.kernel.trip_count() << " iterations, body of "
            << matmul.kernel.body().size() << " ops ("
            << matmul.kernel.op_set_string() << ")\n\n";

  // 2. Map it: one iteration (i,j) per PE(i,j), columns staggered.
  const sched::LoopPipeliner mapper(matmul.array);
  const sched::PlacedProgram program =
      mapper.map(matmul.kernel, matmul.hints, matmul.reduction);

  // 3. Schedule on the base architecture (every PE owns a multiplier).
  const sched::ContextScheduler scheduler;
  const arch::Architecture base = arch::base_architecture(4, 4);
  const sched::ConfigurationContext base_ctx =
      scheduler.schedule(program, base);
  analysis::require_legal(base_ctx);
  std::cout << "Loop-pipelined schedule on the base 4x4 array (cf. paper"
               " Fig. 2;\nrows = array columns, cells = ops issued):\n"
            << render_schedule(base_ctx)
            << "cycles: " << base_ctx.length()
            << ", peak concurrent multiplications: "
            << base_ctx.max_critical_issues_per_cycle() << "\n\n";

  // 4. Reschedule with shared, 2-stage pipelined multipliers (1 per row =
  //    4 total instead of 16).
  const arch::Architecture rsp =
      arch::custom_architecture("RSP-4x4", 4, 4, /*per_row=*/1,
                                /*per_col=*/0, /*stages=*/2);
  const sched::ConfigurationContext rsp_ctx = scheduler.schedule(program, rsp);
  analysis::require_legal(rsp_ctx);
  std::cout << "Same program with 4 shared 2-stage multipliers (cf. paper"
               " Fig. 6;\n1*/2* are the pipeline stages):\n"
            << render_schedule(rsp_ctx)
            << "cycles: " << rsp_ctx.length() << ", RS stalls: "
            << sched::measure(scheduler, sched::TimingProfile(program), rsp)
                   .stalls
            << "\n\n";

  // 5. Execute both on the cycle simulator and verify against the golden.
  ir::Memory base_mem, rsp_mem, golden;
  matmul.setup(base_mem);
  matmul.setup(rsp_mem);
  matmul.setup(golden);
  matmul.golden(golden);
  const sim::Machine machine;
  machine.run(base_ctx, base_mem);
  machine.run(rsp_ctx, rsp_mem);
  std::cout << "simulated(base) == golden: "
            << (base_mem == golden ? "yes" : "NO") << "\n";
  std::cout << "simulated(RSP)  == golden: "
            << (rsp_mem == golden ? "yes" : "NO") << "\n";
  std::cout << "\nZ = ";
  for (std::int64_t v : rsp_mem.array("Z")) std::cout << v << " ";
  std::cout << "\n\nDataflow graph of one iteration (Graphviz):\n"
            << ir::to_dot(matmul.kernel);
  return 0;
}
