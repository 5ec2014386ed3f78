// Cycle-accurate functional simulator of the RSP array.
//
// Executes a configuration context against a data memory: PEs read
// operands from producer output registers, loads/stores go over the row
// buses, shared multiplications flow through the bus switch into the
// (possibly pipelined) shared unit and return `latency` cycles later. The
// simulator refuses contexts that oversubscribe a PE, bus or unit and
// gathers utilisation statistics; its final memory must match the
// reference interpreter, which the integration tests assert for every
// kernel × architecture pair.
//
// There is one engine: `Machine::run` compiles the context into an
// immutable sim::SimProgram (src/sim/program.hpp), whose structural
// legality is verified once, and then executes only the cycles with
// scheduled activity. The tests keep the original dense per-cycle loop as
// an independent reference and require equal values, stats, final memory,
// VCD bytes and refusals (docs/SIMULATOR.md).
#pragma once

#include <cstdint>
#include <vector>

#include "ir/interp.hpp"
#include "sched/context.hpp"

namespace rsp::sim {

struct UtilizationStats {
  int cycles = 0;
  std::int64_t pe_issue_slots = 0;     ///< total PE-cycles available
  std::int64_t pe_issues = 0;          ///< PE-cycles actually used
  std::int64_t bus_reads = 0;
  std::int64_t bus_writes = 0;
  std::int64_t shared_unit_slots = 0;  ///< unit issue slots available
  std::int64_t shared_unit_issues = 0; ///< multiplications issued to units
  std::int64_t mult_ops = 0;

  double pe_utilization() const {
    return pe_issue_slots ? static_cast<double>(pe_issues) / pe_issue_slots
                          : 0.0;
  }
  double shared_unit_utilization() const {
    return shared_unit_slots
               ? static_cast<double>(shared_unit_issues) / shared_unit_slots
               : 0.0;
  }

  bool operator==(const UtilizationStats&) const = default;
};

struct SimResult {
  UtilizationStats stats;
  std::vector<std::int64_t> values;  ///< final value of every context op

  bool operator==(const SimResult&) const = default;
};

/// Accepted and ignored: the simulator has one engine. Kept only because
/// the frozen perfbench/src/fuzz_gen.cpp constructs
/// `Machine(mode, SimEngine::kDense)`; nothing else may name it.
enum class SimEngine { kDense, kEvent };

class Machine {
 public:
  explicit Machine(ir::DatapathMode mode = ir::DatapathMode::kExact)
      : mode_(mode) {}
  /// Shim for perfbench/src/fuzz_gen.cpp: the engine argument is ignored.
  Machine(ir::DatapathMode mode, SimEngine /*ignored*/) : mode_(mode) {}

  /// Runs the context to completion, mutating `memory`: exactly
  /// `SimProgram::compile(context).run(memory, mode)`. Compilation throws
  /// InvalidArgumentError naming the op for an issue cycle outside
  /// [0, length) or an out-of-range producer or order dep, and rsp::Error
  /// on any structural violation (double-booked PE/bus/unit, operand not
  /// ready, ...); either way `memory` is untouched.
  SimResult run(const sched::ConfigurationContext& context,
                ir::Memory& memory) const;

 private:
  ir::DatapathMode mode_;
};

}  // namespace rsp::sim
