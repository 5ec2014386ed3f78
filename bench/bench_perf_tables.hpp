// Shared implementation of the Table 4 / Table 5 benches: evaluate a set of
// kernels across the nine standard architectures, printing cycles, execution
// time, delay reduction and stall counts, measured vs paper.
#pragma once

#include <iostream>
#include <vector>

#include "arch/presets.hpp"
#include "bench_common.hpp"
#include "core/evaluator.hpp"
#include "kernels/workload.hpp"
#include "sched/mapper.hpp"
#include "synth/paper_reference.hpp"

namespace rsp::bench {

inline void run_performance_table(const std::vector<kernels::Workload>& suite,
                                  const std::string& title,
                                  const std::string& csv_name) {
  print_header(title);
  const core::RspEvaluator evaluator;
  const std::vector<arch::Architecture> archs = arch::standard_suite();

  util::CsvWriter csv({"kernel", "arch", "cycles", "execution_time_ns",
                       "delay_reduction_pct", "stalls"});

  for (const kernels::Workload& w : suite) {
    const sched::LoopPipeliner mapper(w.array);
    const sched::PlacedProgram program =
        mapper.map(w.kernel, w.hints, w.reduction);
    const std::vector<core::EvalResult> rows =
        evaluator.evaluate_suite(program, archs);
    const synth::paper::KernelRecord& paper =
        synth::paper::kernel_record(w.name);

    util::Table table({"Arch", "cycles", "ET(ns)", "DR(%)", "stall"});
    table.set_title(w.name + " (" + std::to_string(w.kernel.trip_count()) +
                    " iterations) — measured (paper)");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const core::EvalResult& r = rows[i];
      const synth::paper::PerformanceCell& p = paper.cells.at(i);
      table.add_row(
          {r.arch_name, vs_paper_int(r.cycles, p.cycles),
           vs_paper(r.execution_time_ns, p.execution_time_ns),
           vs_paper(r.delay_reduction_percent, p.delay_reduction_percent),
           i == 0 ? std::string("-")
                  : vs_paper_int(r.stalls, p.stalls.value_or(0))});
      csv.add_row({w.name, r.arch_name, std::to_string(r.cycles),
                   util::format_fixed(r.execution_time_ns, 2),
                   util::format_fixed(r.delay_reduction_percent, 2),
                   std::to_string(r.stalls)});
    }
    std::cout << table.render() << "\n";
  }
  maybe_write_csv(csv, csv_name);
}

}  // namespace rsp::bench
