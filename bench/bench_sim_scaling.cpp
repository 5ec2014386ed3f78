// Simulator scaling bench: what the compile/run split of sim::SimProgram
// costs and buys, and how batched multi-config simulation scales on the
// thread pool.
//
// The timed workload is a deliberately sparse schedule: a long
// configuration (65536 cycles) in which only one cycle in 512 issues
// anything. The simulator compiles the context once into a SimProgram and
// then touches only the ~128 active cycles. Modes:
//
//   compile+run        sim::Machine::run: compile + run each round
//   precompiled        SimProgram::compile once, run() per round
//   batch              runtime::simulate_batch over a busy schedule,
//                      kBatchJobs memories on a 4-worker pool, vs the
//                      same compile-once-run-all work done serially
//
// Every row is informational: the binary exits 1 only when the batch
// results differ from the serial runs (a correctness failure), never on
// a timing. Expected shape: compilation (which includes the verifier's
// legality replay) dominates compile+run, and the batch pool adds scaling
// across independent memories where the host has idle cores.
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "bench_common.hpp"
#include "ir/interp.hpp"
#include "runtime/sim_batch.hpp"
#include "runtime/thread_pool.hpp"
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
constexpr int kBatchRounds = 5;
constexpr int kBatchJobs = 32;
constexpr int kBatchThreads = 4;
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

  bench::print_header("Simulator scaling: compile/run split and batch pool");
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

  // Batched multi-config simulation. Jobs must dwarf the fan-out cost for
  // pool scaling to mean anything, so this section runs a *busy* schedule
  // — every cycle active on all 8 rows — with kBatchJobs independent
  // memories per round: serial baseline vs the pool fan-out. The speedup
  // column compares the two directly (serial = 1).
  const sched::ConfigurationContext busy =
      make_context(a, 1024, /*stride=*/1, /*rows_used=*/8);
  std::vector<ir::Memory> memories;
  for (int j = 0; j < kBatchJobs; ++j) memories.push_back(make_memory());

  // The serial baseline mirrors simulate_batch's own work per call —
  // compile once, then run every job — so the comparison isolates the
  // pool fan-out.
  std::vector<runtime::SimBatchResult> serial;
  const Clock::time_point serial_batch_start = Clock::now();
  for (int r = 0; r < kBatchRounds; ++r) {
    const sim::SimProgram round_program = sim::SimProgram::compile(busy);
    serial.clear();
    for (int j = 0; j < kBatchJobs; ++j) {
      runtime::SimBatchResult out;
      out.memory = memories[static_cast<std::size_t>(j)];
      out.result = round_program.run(out.memory);
      serial.push_back(std::move(out));
    }
  }
  const double serial_batch_ms = ms_since(serial_batch_start);

  runtime::ThreadPool pool(kBatchThreads);
  runtime::SimBatchOptions options;
  options.pool = &pool;
  std::vector<runtime::SimBatchResult> batch;
  const Clock::time_point batch_start = Clock::now();
  for (int r = 0; r < kBatchRounds; ++r)
    batch = runtime::simulate_batch(busy, memories, options);
  const double batch_ms = ms_since(batch_start);
  const double batch_speedup = serial_batch_ms / batch_ms;
  record("batch-serial(" + std::to_string(kBatchJobs) + " busy jobs)",
         serial_batch_ms, 1.0);
  record("batch-pool(" + std::to_string(kBatchThreads) + " threads)",
         batch_ms, batch_speedup);

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
      .set("batch_jobs", kBatchJobs)
      .set("batch_threads", kBatchThreads)
      .set("hardware_threads",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .set("rows", std::move(json_rows));
  util::Json summary = util::Json::object();
  summary.set("precompiled_speedup", precompiled_speedup)
      .set("batch_pool_speedup", batch_speedup);
  json_doc.set("summary", std::move(summary));
  bench::maybe_write_json(json_doc, "sim_scaling");

  std::cout << "\nprecompiled vs compile+run: "
            << util::format_trimmed(precompiled_speedup, 2)
            << "x, batch pool speedup "
            << util::format_trimmed(batch_speedup, 2) << "x ("
            << kBatchThreads << " threads, " << kBatchJobs << " jobs)\n";

  // The one gate: the pool must return exactly the serial results.
  for (std::size_t j = 0; j < batch.size(); ++j)
    if (!(batch[j].result == serial[j].result) ||
        !(batch[j].memory == serial[j].memory)) {
      std::cerr << "batch job " << j << " differs from its serial run\n";
      return 1;
    }
  return 0;
}
