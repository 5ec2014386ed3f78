// VCD (value change dump) waveform export of a simulated context.
//
// Produces a standard VCD file (timescale 1ns) with, per PE, its opcode and
// result value, plus the global cycle counter and per-row bus activity —
// enough to open a kernel run in GTKWave and watch the staggered waves of
// Fig. 2 flow through the array.
#pragma once

#include <string>

#include "sched/context.hpp"
#include "sim/machine.hpp"

namespace rsp::sim {

/// Renders the waveform of `context` executed with values from `result`
/// (obtain `result` from Machine::run on the same context).
std::string to_vcd(const sched::ConfigurationContext& context,
                   const SimResult& result);

}  // namespace rsp::sim
