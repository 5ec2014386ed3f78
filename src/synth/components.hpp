// Pre-synthesized component characterisation (paper Table 1).
//
// The paper evaluates each PE component once with RTL synthesis (Synplify
// Pro, Xilinx Virtex-II) and then performs all exploration with those
// numbers ("we can estimate the hardware cost of an RSP design with
// pre-synthesized architecture components"). This library plays the role of
// that database. Units: area in Virtex-II slices, delay in nanoseconds.
#pragma once

#include <cstdint>

#include "arch/resources.hpp"

namespace rsp::synth {

struct ComponentCost {
  double area_slices = 0.0;
  double delay_ns = 0.0;
};

/// Characterised component database.
class ComponentLibrary {
 public:
  /// The default library holds the paper's Table 1 measurements.
  ComponentLibrary();

  /// Area/delay of a primitive component.
  ComponentCost component(arch::Resource r) const;

  /// Monolithic base PE (Table 1 first row: 910 slices, 25.6 ns).
  ComponentCost base_pe() const { return base_pe_; }

  /// PE with the multiplier extracted (the paper's synthesis reports 489
  /// slices — slightly below 910-416 because the synthesizer re-optimises
  /// the remaining logic). Its critical path is mux + ALU + shift.
  ComponentCost shared_pe() const { return shared_pe_; }

  /// Pipeline register set added per shared multiplier and stage boundary.
  double pipeline_reg_area_per_boundary() const { return pipeline_reg_area_; }
  /// Setup/clk-q overhead a stage boundary adds to a stage path.
  double pipeline_reg_delay() const { return pipeline_reg_delay_; }

  /// Per-PE bus switch cost as a function of the number of shared units the
  /// switch can reach (1..4 measured in the paper: 10/34/55/68 slices and
  /// 0.7/1.2/1.8/2.0 ns; linear extrapolation beyond 4).
  ComponentCost bus_switch(int reachable_units) const;

  /// Intra-array routing overhead added to the system clock by the shared
  /// operand/result network, as a function of the *total* number of shared
  /// units and whether their outputs are registered (RSP). Calibrated on
  /// Table 2; linear extrapolation outside the measured points.
  double wire_load_ns(int total_units, bool pipelined_units) const;

  /// Fixed array-level routing margin of the base design
  /// (26.0 ns array vs 25.6 ns PE in Table 2).
  double base_array_margin_ns() const { return base_array_margin_; }

  /// Synthesis logic-optimisation factor: ratio of synthesized area to the
  /// plain sum of components. Calibrated on Table 2 (0.957 for the
  /// monolithic base design, 0.92 once the multiplier network is split out).
  double optimization_factor(bool shares) const {
    return shares ? shared_opt_factor_ : base_opt_factor_;
  }

 private:
  ComponentCost mux_, alu_, multiplier_, shift_, output_reg_;
  ComponentCost base_pe_, shared_pe_;
  double pipeline_reg_area_ = 100.4;
  double pipeline_reg_delay_ = 0.5;
  double base_array_margin_ = 0.4;
  double base_opt_factor_ = 0.957;
  double shared_opt_factor_ = 0.92;
};

}  // namespace rsp::synth
