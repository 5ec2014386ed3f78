#include "sched/report.hpp"

namespace rsp::sched {

ScheduleStats stats_of(const ConfigurationContext& context) {
  ScheduleStats s;
  s.length = context.length();
  s.mult_histogram = context.critical_issues_per_cycle();
  s.max_mults_per_cycle = context.max_critical_issues_per_cycle();
  s.total_ops = context.size();
  for (const ScheduledOp& op : context.ops())
    if (ir::is_critical_op(op.kind)) ++s.total_mults;
  return s;
}

PerfPoint measure(const ContextScheduler& scheduler,
                  const TimingProfile& profile,
                  const arch::Architecture& architecture) {
  PerfPoint p;
  p.cycles = scheduler.timing(profile, architecture).length;
  p.nostall_cycles = architecture.shares_multiplier()
                         ? scheduler.stall_free_length(profile, architecture)
                         : p.cycles;
  p.stalls = p.cycles - p.nostall_cycles;
  return p;
}

}  // namespace rsp::sched
