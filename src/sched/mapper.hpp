// Loop-pipelining mapper (paper Fig. 2 discipline, after Lee/Choi/Dutt).
//
// The mapper turns an unrolled kernel into a `PlacedProgram`:
//   * the body is linearised (its topological order) so every iteration is
//     a straight op sequence executed by one PE, one op per cycle;
//   * `lanes` iterations form a wave occupying `lanes` rows of one column;
//     successive waves take successive columns (round-robin) and are offset
//     by `stagger` in the priority order;
//   * optional reduction epilogue: per-PE partial results are combined with
//     a binary tree along columns and then along a row, and stored.
//
// The mapper fixes placement and competition order only. Concrete cycles —
// base schedule, RS stalls, RP stretching — come from ContextScheduler.
#pragma once

#include "ir/kernel.hpp"
#include "ir/unroll.hpp"
#include "sched/mapping.hpp"
#include "sched/program.hpp"

namespace rsp::sched {

class LoopPipeliner {
 public:
  explicit LoopPipeliner(arch::ArraySpec array) : array_(array) {
    array_.validate();
  }

  /// Maps the kernel. Throws InfeasibleError when the hints do not fit the
  /// array (too many lanes/columns) and InvalidArgumentError when a
  /// loop-carried dependence cannot be routed under the given hints
  /// (distance not compatible with the wave layout). The program's full
  /// structural check (PlacedProgram::validate) runs once, in the
  /// TimingProfile every scheduling path builds from it.
  PlacedProgram map(const ir::LoopKernel& kernel,
                    const ir::UnrolledGraph& unrolled,
                    const MappingHints& hints,
                    const ReductionSpec& reduction = {}) const;

  /// Convenience: unrolls internally.
  PlacedProgram map(const ir::LoopKernel& kernel, const MappingHints& hints,
                    const ReductionSpec& reduction = {}) const;

 private:
  arch::ArraySpec array_;
};

}  // namespace rsp::sched
