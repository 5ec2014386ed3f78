#include "core/evaluator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rsp::core {

MeasuredPerf measure_perf(const sched::ContextScheduler& scheduler,
                          const sched::PlacedProgram& program,
                          const arch::Architecture& architecture) {
  const sched::ScheduleTiming real = scheduler.timing(program, architecture);
  MeasuredPerf m;
  m.perf.cycles = real.length;
  m.perf.nostall_cycles =
      architecture.shares_multiplier()
          ? scheduler.timing(program, sched::unlimited_units(architecture))
                .length
          : real.length;
  m.perf.stalls = m.perf.cycles - m.perf.nostall_cycles;
  // Peak critical-resource issues per cycle, as
  // ConfigurationContext::max_critical_issues_per_cycle counts them.
  std::vector<int> issues(static_cast<std::size_t>(real.length), 0);
  for (std::size_t i = 0; i < real.cycles.size(); ++i)
    if (ir::is_critical_op(program.ops()[i].kind))
      m.max_critical_issues = std::max(
          m.max_critical_issues,
          ++issues[static_cast<std::size_t>(real.cycles[i])]);
  return m;
}

EvalResult make_eval_result(const arch::Architecture& architecture,
                            const MeasuredPerf& measured, double clock_ns) {
  EvalResult r;
  r.arch_name = architecture.name;
  r.cycles = measured.perf.cycles;
  r.stalls = measured.perf.stalls;
  r.clock_ns = clock_ns;
  r.execution_time_ns = r.cycles * r.clock_ns;
  r.max_mults_per_cycle = measured.max_critical_issues;
  return r;
}

EvalResult RspEvaluator::evaluate_raw(
    const sched::PlacedProgram& program,
    const arch::Architecture& architecture) const {
  return make_eval_result(architecture,
                          measure_perf(scheduler_, program, architecture),
                          synth_.clock_ns(architecture));
}

EvalResult RspEvaluator::evaluate(const sched::PlacedProgram& program,
                                  const arch::Architecture& architecture,
                                  double base_et_ns) const {
  EvalResult r = evaluate_raw(program, architecture);
  if (base_et_ns > 0.0)
    r.delay_reduction_percent =
        100.0 * (base_et_ns - r.execution_time_ns) / base_et_ns;
  return r;
}

void RspEvaluator::apply_delay_reductions(std::vector<EvalResult>& rows) {
  if (rows.empty()) return;
  const double base_et_ns = rows.front().execution_time_ns;
  if (base_et_ns <= 0.0) return;
  for (std::size_t i = 1; i < rows.size(); ++i)
    rows[i].delay_reduction_percent =
        100.0 * (base_et_ns - rows[i].execution_time_ns) / base_et_ns;
}

std::vector<EvalResult> RspEvaluator::evaluate_suite(
    const sched::PlacedProgram& program,
    const std::vector<arch::Architecture>& suite) const {
  if (suite.empty())
    throw InvalidArgumentError("evaluate_suite requires architectures");
  std::vector<EvalResult> out;
  out.reserve(suite.size());
  for (const arch::Architecture& a : suite)
    out.push_back(evaluate_raw(program, a));
  apply_delay_reductions(out);
  return out;
}

}  // namespace rsp::core
