#include "synth/synthesis.hpp"

namespace rsp::synth {

SynthesisReport SynthesisModel::report(const arch::Architecture& a) const {
  SynthesisReport r;
  r.arch_name = a.name;

  const AreaBreakdown area = area_.breakdown(a);
  r.pe_area = a.shares_multiplier() ? area_.library().shared_pe().area_slices
                                    : area_.library().base_pe().area_slices;
  r.switch_area = area.switch_each;
  r.array_area = area.synthesized_total;
  r.area_reduction = area_.reduction_percent(a);

  const ClockBreakdown clk = clock_.breakdown(a);
  r.pe_delay = clk.pe_path_ns;
  r.switch_delay = clk.switch_ns;
  r.clock = clk.total_ns;
  r.delay_reduction = clock_.reduction_percent(a);
  return r;
}

}  // namespace rsp::synth
