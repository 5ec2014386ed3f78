// Mapping directives: how a kernel's iterations are laid out on the array.
//
// The loop-pipelining discipline (paper Fig. 2, after Lee/Choi/Dutt) groups
// iterations into *waves* of `lanes` iterations. Wave w occupies the
// `lanes` bottom rows of column (w mod columns); all lanes of a
// wave run the same linearised body, one op per PE per cycle. Consecutive
// waves start `stagger` cycles apart, so in any one cycle different columns
// execute different parts of the loop body — which is exactly what lets
// area-critical resources be shared.
#pragma once

#include <cstdint>
#include <string>

#include "ir/graph.hpp"

namespace rsp::sched {

struct MappingHints {
  /// Iterations per wave = PEs (rows) of one column used in lockstep.
  int lanes = 8;
  /// Cycles between the starts of consecutive waves.
  int stagger = 1;
  /// Columns used round-robin by successive waves, from column 0.
  int columns = 8;
  /// When lanes < rows, successive column sweeps may occupy successive
  /// row bands (wave w uses rows band·lanes …, with
  /// band = (w / columns) mod available bands). Spreads PE and bus load
  /// over the whole array for kernels with many short waves. Must be false
  /// for kernels with loop-carried chains of distance lanes×columns, which
  /// must revisit the same PE.
  bool cycle_row_bands = false;

  void validate() const;
};

/// Cross-PE reduction appended after the loop (sum of per-PE partial
/// results), used by dot-product style kernels whose accumulators live in
/// the PEs.
struct ReductionSpec {
  enum class Scope {
    kNone,    ///< no reduction
    kAll,     ///< one global sum over every participating PE
    kPerRow,  ///< one sum per array row (e.g. matrix-vector products)
  };
  Scope scope = Scope::kNone;
  /// Body node whose final per-PE value is the partial result.
  ir::NodeId source = ir::kInvalidNode;
  /// Destination of the reduced value(s).
  std::string array;
  /// Element index of the result; for kPerRow, row r stores to index0 + r.
  std::int64_t index0 = 0;

  bool enabled() const { return scope != Scope::kNone; }
};

}  // namespace rsp::sched
