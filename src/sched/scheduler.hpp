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
// and, per op, its kind class, PE, not_before and predecessor list. Exact
// evaluation schedules one program on many architectures (Fig. 7 step 5,
// the Table 4/5 suite), so it builds the profile once and times every
// architecture on it; callers that also need contexts (step 1's base
// schedule, the Service's schedule memo, the fuzzer) pass the same profile
// to `schedule`. The stall-free schedule that RS stalls are counted against
// depends only on the multiplier latency, so the profile also memoizes its
// length per latency.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
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

  /// True when this profile was built from `program` or from a copy of
  /// it that nothing has appended to since (PlacedProgram's stamp).
  bool built_from(const PlacedProgram& program) const {
    return program.stamp_ == program_stamp_;
  }

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
  /// schedule's length (high half) and largest issue cycle (low half), or
  /// kUnset. Racing fills store the same value. A copy keeps what is
  /// memoized.
  struct StallFreeMemo {
    static constexpr std::uint64_t kUnset = ~std::uint64_t{0};
    std::array<std::atomic<std::uint64_t>, arch::kMaxPipelineStages> slots;

    StallFreeMemo();
    StallFreeMemo(const StallFreeMemo& other);
    StallFreeMemo& operator=(const StallFreeMemo&) = delete;
  };

  arch::ArraySpec array_;
  std::uint64_t program_stamp_;   ///< the stamp of the program it reads
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
  explicit ContextScheduler(SchedulerOptions options = {})
      : options_(options) {}

  /// Schedules `program` on `architecture`.
  ConfigurationContext schedule(const PlacedProgram& program,
                                const arch::Architecture& architecture) const;

  /// The same context, timed on `profile`, which must be built from
  /// `program` (callers scheduling one program on several architectures
  /// build its profile once). Throws InvalidArgumentError for a profile of
  /// another program, then what `timing` throws.
  ConfigurationContext schedule(const PlacedProgram& program,
                                const TimingProfile& profile,
                                const arch::Architecture& architecture) const;

  /// The scheduling pass: the issue cycles and units `schedule` assigns,
  /// without building the context. Every call validates `architecture`,
  /// checks that it has the profile's array geometry and aborts past
  /// max_cycles. This is the only implementation of the pass;
  /// `schedule(program, arch)`, the one entry that takes a program, builds
  /// a temporary profile and calls it.
  ScheduleTiming timing(const TimingProfile& profile,
                        const arch::Architecture& architecture) const;

  /// Length of the stall-free schedule RS stalls are counted against:
  /// `architecture`'s pipelining on unlimited_units(architecture). Nothing
  /// else of a sharing target enters that schedule, so `profile` memoizes
  /// it per multiplier latency. The target checks of `timing` run on every
  /// call, and a memoized schedule whose largest issue cycle exceeds this
  /// scheduler's max_cycles throws as the pass would.
  int stall_free_length(const TimingProfile& profile,
                        const arch::Architecture& architecture) const;

 private:
  /// The context of `program` with `timing`'s cycles and units.
  static ConfigurationContext build_context(
      const PlacedProgram& program, const ScheduleTiming& timing,
      const arch::Architecture& architecture);

  SchedulerOptions options_;
};

/// The architecture with the same pipelining but effectively unlimited
/// shared units (one per PE in each row pool), used as the stall-free
/// reference when counting RS stalls.
arch::Architecture unlimited_units(const arch::Architecture& a);

}  // namespace rsp::sched
