// Whole-architecture synthesis estimation = area model + clock model.
//
// `SynthesisModel::report()` produces one Table 2 row per architecture:
// PE area, switch area, array area, area reduction, PE path, switch delay,
// array clock, delay reduction.
#pragma once

#include <string>
#include <vector>

#include "synth/area_model.hpp"
#include "synth/clock_model.hpp"

namespace rsp::synth {

struct SynthesisReport {
  std::string arch_name;
  double pe_area = 0.0;       ///< slices, PE without its bus switch
  double switch_area = 0.0;   ///< slices, one bus switch (0 for base)
  double array_area = 0.0;    ///< slices, whole array after calibration
  double area_reduction = 0.0;///< % vs base, positive = smaller
  double pe_delay = 0.0;      ///< ns, PE/stage critical path
  double switch_delay = 0.0;  ///< ns
  double clock = 0.0;         ///< ns, system clock period
  double delay_reduction = 0.0;///< % vs base, positive = faster
};

class SynthesisModel {
 public:
  const AreaModel& area_model() const { return area_; }
  const ClockModel& clock_model() const { return clock_; }

  SynthesisReport report(const arch::Architecture& a) const;

  double area(const arch::Architecture& a) const {
    return area_.synthesized(a);
  }
  double clock_ns(const arch::Architecture& a) const {
    return clock_.clock_ns(a);
  }

 private:
  AreaModel area_;
  ClockModel clock_;
};

}  // namespace rsp::synth
