// RSP evaluation: cycles, stalls, execution time and delay reduction of a
// placed program across architectures — the machinery behind the paper's
// Tables 4 and 5:
//   ET(ns) = cycles × system clock period
//   DR(%)  = 100 · (ET_base − ET) / ET_base
//   stalls = cycles − cycles(same pipelining, unlimited units)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "synth/synthesis.hpp"

namespace rsp::core {

struct EvalResult {
  std::string arch_name;
  int cycles = 0;
  int stalls = 0;            ///< RS-style stalls (resource lack)
  double clock_ns = 0.0;
  double execution_time_ns = 0.0;
  double delay_reduction_percent = 0.0;  ///< vs the base architecture
  int max_mults_per_cycle = 0;           ///< measured on this context
};

/// Scheduling-only measurement of one (program, architecture) pair.
struct MeasuredPerf {
  sched::PerfPoint perf;
  int max_critical_issues = 0;  ///< peak critical-resource issues per cycle
};

/// Measures the program `profile` was built from on `architecture`, from
/// issue cycles alone (ContextScheduler::timing), so no configuration
/// context is built: the real run gives the cycles and the issue-width
/// column, the stall-free run (ContextScheduler::stall_free_length,
/// memoized in the profile) gives the stalls. The serial evaluator and the
/// evaluation memo-cache fill (runtime::EvalCache::get_or_measure) both
/// measure through it, so a cached row cannot drift from a fresh one.
MeasuredPerf measure_perf(const sched::ContextScheduler& scheduler,
                          const sched::TimingProfile& profile,
                          const arch::Architecture& architecture);

/// Measurement hook for `RspEvaluator::evaluate_suite`: the MeasuredPerf
/// of the evaluated program on `architecture`. Empty = measure_perf with
/// the evaluator's scheduler; api::Service interposes the evaluation
/// memo-cache here.
using MeasurePerfFn =
    std::function<MeasuredPerf(const arch::Architecture& architecture)>;

class RspEvaluator {
 public:
  const synth::SynthesisModel& synthesis() const { return synth_; }
  const sched::ContextScheduler& scheduler() const { return scheduler_; }

  /// Evaluates one architecture. `base_et_ns` <= 0 means "this is the base";
  /// pass the base's ET to fill the delay-reduction column.
  EvalResult evaluate(const sched::PlacedProgram& program,
                      const arch::Architecture& architecture,
                      double base_et_ns = 0.0) const;

  /// Evaluates the whole suite, measuring each architecture through
  /// `measure` (in suite order), or without a hook through the program's
  /// timing profile; the first entry must be the base architecture (delay
  /// reductions are computed against it).
  std::vector<EvalResult> evaluate_suite(
      const sched::PlacedProgram& program,
      const std::vector<arch::Architecture>& suite,
      const MeasurePerfFn& measure = {}) const;

 private:
  synth::SynthesisModel synth_;
  sched::ContextScheduler scheduler_;
};

}  // namespace rsp::core
