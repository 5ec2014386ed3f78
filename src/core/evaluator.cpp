#include "core/evaluator.hpp"

#include <memory>

#include "util/error.hpp"

namespace rsp::core {

MeasuredPerf measure_perf(const sched::ContextScheduler& scheduler,
                          const sched::TimingProfile& profile,
                          const arch::Architecture& architecture) {
  const sched::ScheduleTiming real = scheduler.timing(profile, architecture);
  MeasuredPerf m;
  m.perf.cycles = real.length;
  m.perf.nostall_cycles =
      architecture.shares_multiplier()
          ? scheduler.stall_free_length(profile, architecture)
          : real.length;
  m.perf.stalls = m.perf.cycles - m.perf.nostall_cycles;
  m.max_critical_issues = profile.max_critical_issues(real);
  return m;
}

namespace {

// The row's derived fields from a measurement, delay reduction left 0.
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

double delay_reduction_percent(double base_et_ns, double et_ns) {
  return 100.0 * (base_et_ns - et_ns) / base_et_ns;
}

}  // namespace

EvalResult RspEvaluator::evaluate(const sched::PlacedProgram& program,
                                  const arch::Architecture& architecture,
                                  double base_et_ns) const {
  EvalResult r = make_eval_result(
      architecture,
      measure_perf(scheduler_, *program.timing_profile(), architecture),
      synth_.clock_ns(architecture));
  if (base_et_ns > 0.0)
    r.delay_reduction_percent =
        delay_reduction_percent(base_et_ns, r.execution_time_ns);
  return r;
}

std::vector<EvalResult> RspEvaluator::evaluate_suite(
    const sched::PlacedProgram& program,
    const std::vector<arch::Architecture>& suite,
    const MeasurePerfFn& measure) const {
  if (suite.empty())
    throw InvalidArgumentError("evaluate_suite requires architectures");
  // Without a hook, one profile serves the whole suite.
  std::shared_ptr<const sched::TimingProfile> profile;
  if (!measure) profile = program.timing_profile();
  std::vector<EvalResult> out;
  out.reserve(suite.size());
  for (const arch::Architecture& a : suite)
    out.push_back(make_eval_result(
        a, measure ? measure(a) : measure_perf(scheduler_, *profile, a),
        synth_.clock_ns(a)));
  const double base_et_ns = out.front().execution_time_ns;
  if (base_et_ns > 0.0)
    for (std::size_t i = 1; i < out.size(); ++i)
      out[i].delay_reduction_percent =
          delay_reduction_percent(base_et_ns, out[i].execution_time_ns);
  return out;
}

}  // namespace rsp::core
