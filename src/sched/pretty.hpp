// Schedule pretty-printer reproducing the look of the paper's Fig. 2 and
// Fig. 6: one row per array column, one text column per cycle, cells showing
// the op symbols issued in that (array column, cycle). Pipelined
// multiplications show their stages as "1*" and "2*". The grid shows the
// first 64 cycles, and a longer schedule ends in a truncation line; columns
// that issue nothing in those cycles are left out.
#pragma once

#include <string>

#include "sched/context.hpp"

namespace rsp::sched {

std::string render_schedule(const ConfigurationContext& context);

}  // namespace rsp::sched
