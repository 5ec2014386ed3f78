// Hardware cost estimation — paper equation (2):
//
//   HWcost = n·m·(Sh_PEarea + Regarea + SWarea)
//            + Sh_Resarea·(n·shr + m·shc)   <   n·m·PEarea
//
// `estimate()` evaluates the raw equation with pre-synthesized component
// areas (what the RSP exploration loop uses), `synthesized()` additionally
// applies the calibrated logic-optimisation factor so the result is
// comparable with the paper's Table 2 synthesis column.
#pragma once

#include "arch/presets.hpp"
#include "synth/components.hpp"

namespace rsp::synth {

struct AreaBreakdown {
  double pe_each = 0.0;          ///< one PE (incl. its bus switch & regs share)
  double switch_each = 0.0;      ///< one bus switch
  double pipeline_regs_total = 0.0;
  double shared_units_total = 0.0;
  double raw_total = 0.0;        ///< eq. (2) left-hand side, no synth factor
  double synthesized_total = 0.0;///< raw_total × optimisation factor
};

class AreaModel {
 public:
  const ComponentLibrary& library() const { return lib_; }

  AreaBreakdown breakdown(const arch::Architecture& a) const;

  /// eq. (2) estimate in slices (pre-synthesis; used during exploration).
  double estimate(const arch::Architecture& a) const {
    return breakdown(a).raw_total;
  }

  /// Calibrated synthesized area in slices (Table 2 "Array" column).
  double synthesized(const arch::Architecture& a) const {
    return breakdown(a).synthesized_total;
  }

  /// eq. (2) constraint: does the RSP design cost less than the base array
  /// of the same geometry? (Always true for the paper's four topologies.)
  bool satisfies_cost_constraint(const arch::Architecture& a) const;

  /// Area reduction vs. the base architecture of the same geometry, in
  /// percent (Table 2 "R(%)" column).
  double reduction_percent(const arch::Architecture& a) const;

 private:
  ComponentLibrary lib_;
};

}  // namespace rsp::synth
