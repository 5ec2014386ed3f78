// Bring-your-own-kernel walk-through: how a user of the library maps their
// own loop onto the RSP template, end to end.
//
// The loop is a FIR-style correlation,  y[k] = Σ_{t<4} c[t] · x[k+t],
// written directly with GraphBuilder, mapped with explicit hints, explored
// across the standard architectures and executed on the simulator against
// a plain C++ reference.
#include <iostream>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "core/evaluator.hpp"
#include "ir/builder.hpp"
#include "kernels/workload.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace rsp;
  constexpr std::int64_t kTaps = 4;
  constexpr std::int64_t kIters = 64;
  const std::int64_t coeff[kTaps] = {3, -1, 4, 2};

  // 1. Describe one loop iteration as a dataflow graph.
  ir::GraphBuilder b;
  ir::NodeId acc = ir::kInvalidNode;
  for (std::int64_t t = 0; t < kTaps; ++t) {
    auto x = b.load("x", [t](std::int64_t k) { return k + t; },
                    "x[k+" + std::to_string(t) + "]");
    auto c = b.constant(coeff[t], "c" + std::to_string(t));
    auto prod = b.mult(c, x);
    acc = (t == 0) ? prod : b.add(acc, prod);
  }
  b.store("y", [](std::int64_t k) { return k; }, acc, "y[k]");
  const ir::LoopKernel kernel("FIR4", b.take(), kIters);

  std::cout << "Kernel FIR4: " << kernel.body().size() << " ops/iteration ("
            << kernel.op_set_string() << "), "
            << kernel.mults_per_iteration() << " mults, " << kIters
            << " iterations\n\n";

  // 2. Choose the wave layout: 4 lanes, staggered, cycling row bands.
  sched::MappingHints hints;
  hints.lanes = 4;
  hints.stagger = 2;
  hints.columns = 8;
  hints.cycle_row_bands = true;

  const arch::ArraySpec array;  // paper 8×8
  const sched::LoopPipeliner mapper(array);
  const sched::PlacedProgram program = mapper.map(kernel, hints);

  // 3. Evaluate across the nine standard architectures.
  const core::RspEvaluator evaluator;
  const auto rows = evaluator.evaluate_suite(program, arch::standard_suite());
  util::Table table({"Arch", "cycles", "ET(ns)", "DR(%)", "stall"});
  for (const auto& r : rows)
    table.add_row({r.arch_name, std::to_string(r.cycles),
                   util::format_trimmed(r.execution_time_ns, 1),
                   util::format_trimmed(r.delay_reduction_percent, 2),
                   std::to_string(r.stalls)});
  std::cout << table.render() << "\n";

  // 4. Execute on the simulator and compare with a plain C++ loop.
  const arch::Architecture chosen = arch::rsp_architecture(2);
  const sched::ConfigurationContext ctx =
      sched::ContextScheduler().schedule(program, chosen);
  analysis::require_legal(ctx);

  ir::Memory mem;
  mem.set("x", kernels::deterministic_data("fir.x", kIters + kTaps, -40, 40));
  mem.allocate("y", kIters);
  sim::Machine().run(ctx, mem);

  bool ok = true;
  for (std::int64_t k = 0; k < kIters; ++k) {
    std::int64_t expect = 0;
    for (std::int64_t t = 0; t < kTaps; ++t)
      expect += coeff[t] * mem.read("x", k + t);
    ok &= mem.read("y", k) == expect;
  }
  std::cout << "simulated FIR4 on " << chosen.name << ": "
            << (ok ? "matches the C++ reference" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}
