// Simulator scaling bench: what the compile/run split of sim::SimProgram
// costs and buys.
//
// The timed workload is a deliberately sparse schedule: a long
// configuration (65536 cycles) in which only one cycle in 512 issues
// anything. The simulator compiles the context once into a SimProgram and
// then touches only the ~128 active cycles. Modes:
//
//   compile+run        sim::Machine::run: compile + run each round
//   precompiled        SimProgram::compile once, run() per round
//
// Both rows are informational; the bench has no gate. Expected shape:
// compilation (which includes the verifier's legality replay) dominates
// compile+run.
#include <chrono>
#include <iostream>
#include <vector>

#include "arch/presets.hpp"
#include "bench_common.hpp"
#include "ir/interp.hpp"
#include "sched/context.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace rsp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Best-of-N timing: the minimum over repetitions is the standard defence
// against scheduler noise on loaded CI runners.
template <typename Fn>
double best_of(int reps, const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    fn();
    const double elapsed = ms_since(start);
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

constexpr int kLength = 65536;
constexpr int kStride = 512;  // one active cycle in kStride
constexpr int kRounds = 40;
constexpr int kArraySize = 64;

// Legal-by-construction schedule on the base 8x8 array: every active cycle
// (one in `stride`) issues on `rows_used` rows — two loads and one store
// per row (inside the bus budgets) plus adds chained across active cycles.
sched::ConfigurationContext make_context(const arch::Architecture& a,
                                         int length, int stride,
                                         int rows_used) {
  const int pes = rows_used * 8;
  std::vector<sched::ScheduledOp> ops;
  std::vector<int> prev(static_cast<std::size_t>(pes), -1);
  for (int t = 0; t + 1 < length; t += stride) {
    std::vector<int> next(static_cast<std::size_t>(pes), -1);
    for (int pe = 0; pe < pes; ++pe) {
      const arch::PeCoord coord{pe / 8, pe % 8};
      sched::ScheduledOp op;
      op.pe = coord;
      op.cycle = t;
      if (coord.col < 2) {
        op.kind = ir::OpKind::kLoad;
        op.array = "m";
        op.address = (t / stride + pe) % kArraySize;
      } else if (coord.col == 2) {
        op.kind = ir::OpKind::kStore;
        op.array = "m";
        op.address = (t / stride + pe * 7) % kArraySize;
        op.operands = {prev[static_cast<std::size_t>(pe)] >= 0
                           ? sched::ProgOperand{prev[static_cast<std::size_t>(
                                                    pe)],
                                                0}
                           : sched::ProgOperand{-1, t + pe}};
      } else if (prev[static_cast<std::size_t>(pe)] >= 0) {
        op.kind = ir::OpKind::kAdd;
        op.operands = {
            sched::ProgOperand{prev[static_cast<std::size_t>(pe)], 0},
            sched::ProgOperand{-1, pe + 1}};
      } else {
        op.kind = ir::OpKind::kConst;
        op.imm = 3 * pe + 1;
      }
      next[static_cast<std::size_t>(pe)] =
          ir::produces_value(op.kind) ? static_cast<int>(ops.size()) : -1;
      ops.push_back(std::move(op));
    }
    prev = next;
  }
  // Pad the schedule to exactly `length` cycles of dense scanning.
  sched::ScheduledOp tail;
  tail.kind = ir::OpKind::kNop;
  tail.pe = {7, 7};
  tail.cycle = length - 1;
  ops.push_back(tail);
  return sched::ConfigurationContext(a, std::move(ops));
}

ir::Memory make_memory() {
  ir::Memory mem;
  mem.allocate("m", kArraySize);
  for (int i = 0; i < kArraySize; ++i) mem.write("m", i, 5 * i - 11);
  return mem;
}

}  // namespace

int main() {
  const arch::Architecture a = arch::base_architecture();
  const sched::ConfigurationContext context =
      make_context(a, kLength, kStride, /*rows_used=*/2);
  const sim::SimProgram program = sim::SimProgram::compile(context);

  bench::print_header("Simulator scaling: compile/run split");
  std::cout << context.size() << " ops over " << context.length()
            << " cycles, " << program.active_cycle_count()
            << " active cycles, " << kRounds << " rounds\n";

  util::Table table({"Mode", "Time(ms)", "Speedup"});
  util::CsvWriter csv({"mode", "time_ms", "speedup"});
  util::Json json_rows = util::Json::array();
  const auto record = [&](const std::string& mode, double time_ms,
                          double speedup) {
    table.add_row({mode, util::format_trimmed(time_ms, 2),
                   util::format_trimmed(speedup, 2)});
    csv.add_row({mode, util::format_trimmed(time_ms, 3),
                 util::format_trimmed(speedup, 3)});
    util::Json row = util::Json::object();
    row.set("mode", mode).set("time_ms", time_ms).set("speedup", speedup);
    json_rows.push(std::move(row));
  };

  const sim::Machine machine;
  const double compile_run_ms = best_of(3, [&] {
    for (int r = 0; r < kRounds; ++r) {
      ir::Memory mem = make_memory();
      machine.run(context, mem);
    }
  });
  record("compile+run", compile_run_ms, 1.0);

  const double precompiled_ms = best_of(3, [&] {
    for (int r = 0; r < kRounds; ++r) {
      ir::Memory mem = make_memory();
      program.run(mem);
    }
  });
  const double precompiled_speedup = compile_run_ms / precompiled_ms;
  record("precompiled", precompiled_ms, precompiled_speedup);

  std::cout << table.render();
  bench::maybe_write_csv(csv, "bench_sim_scaling");

  // BENCH_sim_scaling.json: the regression-tracking document CI archives
  // alongside BENCH_dse_memo.json.
  util::Json json_doc = util::Json::object();
  json_doc.set("bench", "sim_scaling")
      .set("ops", context.size())
      .set("total_cycles", context.length())
      .set("active_cycles", program.active_cycle_count())
      .set("rounds", kRounds)
      .set("rows", std::move(json_rows));
  util::Json summary = util::Json::object();
  summary.set("precompiled_speedup", precompiled_speedup);
  json_doc.set("summary", std::move(summary));
  bench::maybe_write_json(json_doc, "sim_scaling");

  std::cout << "\nprecompiled vs compile+run: "
            << util::format_trimmed(precompiled_speedup, 2) << "x\n";
  return 0;
}
