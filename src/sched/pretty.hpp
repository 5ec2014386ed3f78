// Schedule pretty-printers reproducing the look of the paper's Fig. 2 and
// Fig. 6: one row per array column, one text column per cycle, cells showing
// the op symbols issued in that (array column, cycle). Pipelined
// multiplications show their stages as "1*" and "2*".
#pragma once

#include <string>

#include "sched/context.hpp"

namespace rsp::sched {

struct PrettyOptions {
  int max_cycles = 64;   ///< truncate very long schedules
  bool per_pe = false;   ///< one row per PE instead of per array column
};

std::string render_schedule(const ConfigurationContext& context,
                            PrettyOptions options = {});

}  // namespace rsp::sched
