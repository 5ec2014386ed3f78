// System clock (critical path) model — paper Fig. 5 and Table 2.
//
// Base architecture: the monolithic PE path (mux → multiplier → shift →
// output register, 25.6 ns) plus a fixed array routing margin → 26.0 ns.
//
// RS: the extracted multiplier stays combinational, so the path now runs
// through the bus switch twice (operands out, product back):
//   clock = base PE path + switch delay(reachable units) + wire load(units).
//
// RSP: the shared multiplier is pipelined; the clock becomes the longest
// *stage*: max(primitive PE path = mux+ALU+shift = 15.3 ns,
//              multiplier/stages + pipeline register overhead)
// plus the same switch/wire terms. With 2 stages the primitive path
// dominates (15.3 > 19.7/2 + 0.5), which is why the paper stops at 2.
#pragma once

#include "arch/presets.hpp"
#include "synth/components.hpp"

namespace rsp::synth {

struct ClockBreakdown {
  double pe_path_ns = 0.0;    ///< longest path inside a PE / pipeline stage
  double switch_ns = 0.0;     ///< per-PE bus-switch traversal
  double wire_load_ns = 0.0;  ///< shared-network loading
  double margin_ns = 0.0;     ///< base array routing margin
  double total_ns = 0.0;      ///< system clock period
};

class ClockModel {
 public:
  const ComponentLibrary& library() const { return lib_; }

  ClockBreakdown breakdown(const arch::Architecture& a) const;

  /// System clock period in ns (Table 2 "Array" delay column).
  double clock_ns(const arch::Architecture& a) const {
    return breakdown(a).total_ns;
  }

  /// Delay reduction vs. the base architecture, percent (negative when the
  /// sharing network makes the clock slower, as for all RS designs).
  double reduction_percent(const arch::Architecture& a) const;

  /// Longest stage of a multiplier split into `stages` pipeline stages.
  double mult_stage_ns(int stages) const;

 private:
  ComponentLibrary lib_;
};

}  // namespace rsp::synth
