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

}  // namespace rsp::sched
