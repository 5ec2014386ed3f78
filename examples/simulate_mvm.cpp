// End-to-end walk-through of one kernel on one architecture, with full
// visibility into every intermediate artefact:
//   kernel DFG → unrolled ops → placed program → configuration context →
//   per-PE configuration cache footprint → cycle simulation + utilisation.
//
// The kernel is the matrix-vector multiply (paper Table 5, "MVM"): PE(r,c)
// computes A[r][c]·x[c] and each array row tree-reduces its products into
// y[r] — a textbook use of the row interconnect.
#include <iostream>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "ir/unroll.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/pretty.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "util/strings.hpp"

int main() {
  using namespace rsp;

  const kernels::Workload w = kernels::find_workload("MVM");
  std::cout << "Kernel " << w.name << ": " << w.kernel.trip_count()
            << " iterations of {" << w.kernel.op_set_string()
            << "}, mapped with " << w.hints.lanes << " lanes over "
            << w.hints.columns << " columns + per-row reduction\n\n";

  const ir::UnrolledGraph unrolled(w.kernel);
  std::cout << "Unrolled: " << unrolled.size() << " concrete ops\n";

  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram program =
      mapper.map(w.kernel, unrolled, w.hints, w.reduction);
  std::cout << "Placed:   " << program.size()
            << " ops (loop + reduction tree + stores)\n\n";

  const arch::Architecture a = arch::rsp_architecture(2);
  const sched::ContextScheduler scheduler;
  const sched::ConfigurationContext ctx = scheduler.schedule(program, a);
  analysis::require_legal(ctx);

  std::cout << "Schedule on " << a.name << " (" << ctx.length()
            << " cycles):\n";
  std::cout << render_schedule(ctx) << "\n";

  const arch::ConfigCache cache = ctx.encode();
  std::cout << "Configuration cache: " << cache.summary() << ", "
            << cache.total_bits(a.sharing) / 8 << " bytes total\n\n";

  ir::Memory mem, golden;
  w.setup(mem);
  w.setup(golden);
  const sim::Machine machine;
  const sim::SimResult result = machine.run(ctx, mem);
  w.golden(golden);

  std::cout << "Simulation: " << result.stats.cycles << " cycles, "
            << result.stats.bus_reads << " bus reads, "
            << result.stats.bus_writes << " bus writes\n"
            << "  PE utilisation:          "
            << util::format_trimmed(100 * result.stats.pe_utilization(), 1)
            << "%\n"
            << "  shared-unit utilisation: "
            << util::format_trimmed(
                   100 * result.stats.shared_unit_utilization(), 1)
            << "% (" << result.stats.shared_unit_issues << " issues on "
            << a.sharing.total_units(a.array) << " units)\n\n";

  std::cout << "y = [ ";
  for (std::int64_t v : mem.array("y")) std::cout << v << " ";
  std::cout << "]  —  " << (mem == golden ? "matches" : "DOES NOT match")
            << " the golden model\n";
  return 0;
}
