// Architecture → structural Verilog.
//
// Generates a synthesizable design for any template instance:
//   rsp_alu / rsp_shift / rsp_mux      — primitive PE resources
//   rsp_multiplier                     — array multiplier, 1..N stages
//   rsp_pe                             — PE variant (with/without multiplier,
//                                        with/without bus-switch taps)
//   rsp_bus_switch                     — operand/result steering (Fig. 4)
//   rsp_config_cache                   — per-PE context word memory
//   rsp_array (top)                    — rows×cols PEs, row buses, shared
//                                        units per row/column (Fig. 8)
// The paper built these by hand in VHDL; here they derive from the same
// Architecture object the scheduler and cost models use, so the hardware
// view and the mapping view can never drift apart.
#pragma once

#include <string>

#include "arch/presets.hpp"
#include "rtl/verilog.hpp"

namespace rsp::rtl {

/// Builds the complete design for `architecture`, with 32 configuration
/// words per PE cache.
Design generate(const arch::Architecture& architecture);

/// Convenience: emitted Verilog text for `architecture`.
std::string generate_verilog(const arch::Architecture& architecture);

/// Summary statistics of a generated design (used by tests and reports).
struct RtlStats {
  int modules = 0;
  int pe_instances = 0;
  int shared_multiplier_instances = 0;
  int bus_switch_instances = 0;
  int config_cache_instances = 0;
};
RtlStats stats_of(const Design& design);

}  // namespace rsp::rtl
