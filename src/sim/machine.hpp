// Cycle-accurate functional simulator of the RSP array.
//
// Executes a configuration context cycle by cycle against a data memory:
// PEs read operands from producer output registers, loads/stores go over
// the row buses, shared multiplications flow through the bus switch into
// the (possibly pipelined) shared unit and return `latency` cycles later.
// The simulator validates structural legality as it runs (it refuses
// contexts that oversubscribe a PE, bus or unit) and gathers utilisation
// statistics; its final memory must match the reference interpreter, which
// the integration tests assert for every kernel × architecture pair.
//
// Two engines produce bit-identical results (values, stats, final memory,
// and therefore byte-identical VCD dumps — see docs/SIMULATOR.md):
//
//   * kDense — the reference loop below: every cycle visits the full
//     per-cycle bookkeeping whether or not anything is scheduled.
//   * kEvent — compiles the context into an immutable sim::SimProgram
//     (src/sim/program.hpp) whose structural legality is verified once,
//     then executes only the cycles and resources with scheduled activity.
#pragma once

#include <cstdint>
#include <string>
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

/// Simulation engine selection. Both engines are bit-identical on every
/// legal context; kDense is the straight-line reference, kEvent the
/// production path for sparse (low-utilization) schedules and batched
/// multi-memory simulation.
enum class SimEngine { kDense, kEvent };

/// "dense" / "event" — the wire and CLI spelling of the engine.
const char* engine_name(SimEngine engine);

/// Inverse of engine_name; throws InvalidArgumentError on anything else.
SimEngine parse_sim_engine(const std::string& name);

class Machine {
 public:
  explicit Machine(ir::DatapathMode mode = ir::DatapathMode::kExact,
                   SimEngine engine = SimEngine::kDense)
      : mode_(mode), engine_(engine) {}

  /// Runs the context to completion, mutating `memory`. Both engines first
  /// run analysis::verify_context, which throws InvalidArgumentError naming
  /// the op for an issue cycle outside [0, length) or an out-of-range
  /// producer or order dep — such indices would otherwise walk off the
  /// per-cycle issue table. Throws rsp::Error on any structural violation
  /// encountered while executing (double-booked PE/bus/unit, operand not
  /// ready, ...).
  SimResult run(const sched::ConfigurationContext& context,
                ir::Memory& memory) const;

  SimEngine engine() const { return engine_; }

 private:
  SimResult run_dense(const sched::ConfigurationContext& context,
                      ir::Memory& memory) const;

  ir::DatapathMode mode_;
  SimEngine engine_;
};

}  // namespace rsp::sim
