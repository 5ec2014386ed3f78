#include "core/report_json.hpp"

namespace rsp::core {

util::Json to_json(const std::string& kernel_name,
                   const std::vector<EvalResult>& rows) {
  util::Json j = util::Json::object();
  j.set("kernel", kernel_name);
  util::Json arr = util::Json::array();
  for (const EvalResult& r : rows) {
    util::Json row = util::Json::object();
    row.set("arch", r.arch_name)
        .set("cycles", r.cycles)
        .set("stalls", r.stalls)
        .set("clock_ns", r.clock_ns)
        .set("execution_time_ns", r.execution_time_ns)
        .set("delay_reduction_percent", r.delay_reduction_percent)
        .set("max_mults_per_cycle", r.max_mults_per_cycle);
    arr.push(std::move(row));
  }
  j.set("results", std::move(arr));
  return j;
}

}  // namespace rsp::core
