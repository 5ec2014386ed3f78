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
//
// What the pass reads of a placed program depends on the program alone, so
// a TimingProfile extracts it once: the validated program's priority order
// and, per op, its kind class, PE, not_before and predecessor list.
// LoopPipeliner::map builds it as its last step and the mapped program
// carries it (PlacedProgram::timing_profile), so one program scheduled or
// timed on many architectures (Fig. 7 steps 1 and 5, the Table 4/5 suite,
// the Service's schedule memo, the fuzzer) reuses one profile. The
// stall-free schedule that RS stalls are counted against depends only on
// the multiplier latency, so the profile also memoizes its length per
// latency.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "arch/presets.hpp"
#include "sched/context.hpp"
#include "sched/program.hpp"

namespace rsp::sched {

/// Safety valve: the pass throws InternalError rather than issue an op
/// past this cycle.
inline constexpr int kMaxIssueCycle = 1 << 20;

/// What the scheduling pass decides, indexed like the program's ops.
struct ScheduleTiming {
  std::vector<int> cycles;  ///< issue cycle
  /// Shared-unit slot, -1 if none: row pools first (PE(r,c) reaches
  /// r*upr .. r*upr+upr-1), then column pools (rows*upr + c*upc ..).
  std::vector<int> unit_slots;
  int length = 0;  ///< max over ops of (cycle + latency)
};

/// The per-program part of the scheduling pass, built once per placed
/// program and scheduled on any number of architectures of its array
/// geometry. The constructor is the pass's only call of
/// PlacedProgram::validate and of the priority sort. The profile holds no
/// reference to the program. One profile may be shared across threads:
/// the stall-free memo is its only mutable state, and it is atomic.
class TimingProfile {
 public:
  /// Throws what PlacedProgram::validate throws for an invalid `program`.
  explicit TimingProfile(const PlacedProgram& program);

  const arch::ArraySpec& array() const { return array_; }
  std::size_t size() const { return order_.size(); }

  /// Peak critical-operation issues in one cycle of `timing`, a schedule
  /// of this profile's program: the count
  /// ConfigurationContext::max_critical_issues_per_cycle takes.
  int max_critical_issues(const ScheduleTiming& timing) const;

 private:
  friend class ContextScheduler;

  enum class Kind : std::uint8_t { kOther, kLoad, kStore, kCritical };

  /// One op as the pass reads it.
  struct Op {
    Kind kind = Kind::kOther;
    int pe_slot = 0;  ///< ArraySpec::linear of the PE
    int row = 0;
    int col = 0;
    int not_before = 0;
  };

  /// Per multiplier latency 1..kMaxPipelineStages, the stall-free
  /// schedule's length, or kUnset. Racing fills store the same value.
  struct StallFreeMemo {
    static constexpr int kUnset = -1;
    std::array<std::atomic<int>, arch::kMaxPipelineStages> slots;

    StallFreeMemo();
  };

  arch::ArraySpec array_;
  std::vector<ProgIndex> order_;  ///< program indices, by priority
  std::vector<Op> ops_;           ///< indexed like the program's ops
  /// Operand and order-dependence predecessors of op i, as program
  /// indices: preds_[pred_start_[i] .. pred_start_[i + 1]).
  std::vector<std::size_t> pred_start_;
  std::vector<ProgIndex> preds_;
  mutable StallFreeMemo stall_free_;
};

class ContextScheduler {
 public:
  /// Schedules `program` on `architecture`, timed on the program's
  /// profile (PlacedProgram::timing_profile). Throws what `timing` throws;
  /// an invalid `architecture`'s error comes before an invalid program's.
  ConfigurationContext schedule(const PlacedProgram& program,
                                const arch::Architecture& architecture) const;

  /// The scheduling pass: the issue cycles and units `schedule` assigns,
  /// without building the context. Every call validates `architecture`,
  /// checks that it has the profile's array geometry and aborts past
  /// kMaxIssueCycle. This is the only implementation of the pass.
  ScheduleTiming timing(const TimingProfile& profile,
                        const arch::Architecture& architecture) const;

  /// Length of the stall-free schedule RS stalls are counted against:
  /// `architecture`'s pipelining on unlimited_units(architecture). Nothing
  /// else of a sharing target enters that schedule, so `profile` memoizes
  /// its length per multiplier latency. The target checks of `timing` run
  /// on every call; a run that throws past kMaxIssueCycle memoizes
  /// nothing, so a memo hit needs no bound check.
  int stall_free_length(const TimingProfile& profile,
                        const arch::Architecture& architecture) const;

 private:
  /// The context of `program` with `timing`'s cycles and units.
  static ConfigurationContext build_context(
      const PlacedProgram& program, const ScheduleTiming& timing,
      const arch::Architecture& architecture);
};

/// The architecture with the same pipelining but effectively unlimited
/// shared units (one per PE in each row pool), used as the stall-free
/// reference when counting RS stalls.
arch::Architecture unlimited_units(const arch::Architecture& a);

}  // namespace rsp::sched
