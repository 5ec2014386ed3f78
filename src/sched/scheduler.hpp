// Context scheduler: resource-constrained list scheduling of a placed
// program on a concrete architecture. This single pass realises:
//
//   * the base configuration context (base architecture: every PE owns a
//     multiplier, nothing to contend for except PEs and data buses);
//   * the paper's RS rearrangement rule — "shared resources are assigned to
//     PEs in the order of loop iteration; if shared resources lack, the
//     operations in later loop iterations are moved to the next cycle" —
//     via priority-ordered greedy unit assignment;
//   * the paper's RP rearrangement rule — "operations dependent on the
//     output of pipelined resources stall together; overlapped cycles of
//     consecutive pipelined operations are removed" — via the multi-cycle
//     multiplier latency and the units' one-issue-per-cycle pipelining.
//
// Resources modelled per cycle: one op per PE, `read_buses_per_row` loads
// and `write_buses_per_row` stores per row, and one issue per shared
// multiplier unit.
//
// The pass only decides issue cycles and unit slots (`timing`); `schedule`
// runs it and then materialises the ScheduledOps. Measurements need the
// lengths alone, so they take `timing` and build no context.
#pragma once

#include <vector>

#include "arch/presets.hpp"
#include "sched/context.hpp"
#include "sched/program.hpp"

namespace rsp::sched {

struct SchedulerOptions {
  /// Safety valve: abort if a schedule exceeds this many cycles.
  int max_cycles = 1 << 20;
};

/// What the scheduling pass decides, indexed like the program's ops.
struct ScheduleTiming {
  std::vector<int> cycles;  ///< issue cycle
  /// Shared-unit slot, -1 if none: row pools first (PE(r,c) reaches
  /// r*upr .. r*upr+upr-1), then column pools (rows*upr + c*upc ..).
  std::vector<int> unit_slots;
  int length = 0;  ///< max over ops of (cycle + latency)
};

class ContextScheduler {
 public:
  explicit ContextScheduler(SchedulerOptions options = {})
      : options_(options) {}

  /// Schedules `program` on `architecture`.
  ConfigurationContext schedule(const PlacedProgram& program,
                                const arch::Architecture& architecture) const;

  /// The scheduling pass of `schedule` alone: the same checks and the same
  /// issue cycles and units, without building the context.
  ScheduleTiming timing(const PlacedProgram& program,
                        const arch::Architecture& architecture) const;

 private:
  SchedulerOptions options_;
};

/// The architecture with the same pipelining but effectively unlimited
/// shared units (one per PE in each row pool), used as the stall-free
/// reference when counting RS stalls.
arch::Architecture unlimited_units(const arch::Architecture& a);

}  // namespace rsp::sched
