// The components of a processing element (paper Table 1).
//
// The paper's PE is built from a multiplexer front-end, an ALU, an array
// multiplier and shift logic, plus output registers; RS/RSP designs add
// pipeline registers and a per-PE bus switch. The array multiplier is the
// one critical resource the template shares and pipelines (45.7% of a PE's
// area, 77% of its delay), so this enum only names the components that
// synth::ComponentLibrary prices.
#pragma once

#include <cstdint>

namespace rsp::arch {

enum class Resource : std::uint8_t {
  kMultiplexer,      // operand selection front-end
  kAlu,              // add/sub/abs/logic
  kArrayMultiplier,  // the critical resource of the paper's domain
  kShiftLogic,       // barrel shifter
  kOutputRegister,   // PE output register file
  kPipelineRegister, // register inserted when a resource is pipelined
  kBusSwitch,        // per-PE switch steering operands to shared resources
};

}  // namespace rsp::arch
