// Fast performance upper bound used inside the RSP exploration loop
// (paper §4): instead of fully rescheduling every candidate, count per
// cycle how many critical operations the *initial* (base) context issues
// and compare with the candidate's shared-unit capacity (RS stall bound),
// and account for the extra latency of pipelined multiplications along the
// longest multiplication chain (RP stall bound). The paper notes "in
// reality, more cycles may stall … thus this approximation is an upper
// bound of the performance" — i.e. the estimate is optimistic; the exact
// number comes from full rescheduling afterwards.
//
// Everything the estimate reads from the base context depends on the kernel
// alone, so an EstimateProfile extracts it once per kernel: the
// multiplication sites of every base cycle (in CSR form), the longest
// multiplication chain, the base length and the array geometry. Estimating
// one design point is then a single pass over the cycles. Each cycle's
// served count is an exact capacitated matching: a multiplication at
// PE(r,c) takes a unit of row pool r or of column pool c, so the rows+cols
// pools are the nodes, each multiplication is an edge between its two pool
// nodes, and augmenting paths run over the pool nodes. The maximum matching
// size is unique, so any exact algorithm gives the same estimate.
#pragma once

#include <vector>

#include "arch/presets.hpp"
#include "sched/context.hpp"

namespace rsp::core {

struct PerfEstimate {
  int base_cycles = 0;
  int rs_stall_bound = 0;   ///< extra cycles from lacking shared units
  int rp_overhead = 0;      ///< extra cycles from multi-cycle multiplication
  int estimated_cycles() const {
    return base_cycles + rs_stall_bound + rp_overhead;
  }
};

/// The per-kernel part of the estimate, built once from a base context and
/// then queried for any number of target architectures. Immutable, so one
/// profile may be shared across threads.
class EstimateProfile {
 public:
  /// Throws InvalidArgumentError unless `base_context` was scheduled on the
  /// base architecture (every PE owns a multiplier).
  explicit EstimateProfile(const sched::ConfigurationContext& base_context);

  /// Estimates the cycle count on `target` without rescheduling. Throws
  /// InvalidArgumentError when `target`'s array geometry differs from the
  /// base context's.
  PerfEstimate estimate(const arch::Architecture& target) const;

  int base_cycles() const { return base_cycles_; }

  /// Longest chain of dependent multiplications in the base context (the
  /// RP overhead multiplies this by stages-1).
  int longest_mult_chain() const { return longest_chain_; }

 private:
  arch::ArraySpec array_;
  int base_cycles_ = 0;
  int longest_chain_ = 0;
  int max_sites_ = 0;  ///< most multiplications issued in one cycle
  /// base_cycles_ + 1 offsets: cycle t's sites are
  /// sites_[cycle_start_[t] .. cycle_start_[t + 1]).
  std::vector<int> cycle_start_;
  std::vector<arch::PeCoord> sites_;  ///< multiplication PEs, cycle-major
};

/// Estimates the cycle count of `target` from the base-architecture context
/// without rescheduling. `base_context` must come from the base
/// architecture of the same array geometry. Callers estimating one kernel
/// on many targets build its EstimateProfile once instead.
PerfEstimate estimate_performance(const sched::ConfigurationContext& base_context,
                                  const arch::Architecture& target);

}  // namespace rsp::core
