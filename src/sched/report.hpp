// Schedule statistics: lengths, stalls and multiplier pressure.
#pragma once

#include <vector>

#include "sched/context.hpp"

namespace rsp::sched {

struct ScheduleStats {
  int length = 0;                 ///< cycles
  int max_mults_per_cycle = 0;    ///< Table 3 "Mult No"
  std::int64_t total_mults = 0;
  std::int64_t total_ops = 0;
  std::vector<int> mult_histogram;  ///< mult issues per cycle
};

ScheduleStats stats_of(const ConfigurationContext& context);

/// Cycles and stall decomposition of one (program, architecture) pair.
///
/// `stalls` follows the paper's accounting: the difference between the
/// schedule under the real unit counts and the schedule under the same
/// pipelining with unlimited units. For the base architecture it is 0 by
/// definition; for RS it equals cycles − base cycles; for RSP the pipeline
/// stretching is part of `cycles` but not of `stalls`.
struct PerfPoint {
  int cycles = 0;
  int stalls = 0;
  int nostall_cycles = 0;  ///< schedule length with unlimited units
};

}  // namespace rsp::sched
