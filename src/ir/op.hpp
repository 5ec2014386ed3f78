// Operation set of the RSP-CGRA processing element.
//
// The paper's kernels (Table 3) use: mult, add, sub, abs, shift, load and
// store. `kConst` models configuration-supplied constants (the constant C in
// the paper's matrix-multiplication example is "specified in the
// configuration cache"), `kRoute` models an explicit PE-to-PE data move
// inserted by the mapper, and `kNop` is an idle slot.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace rsp::ir {

enum class OpKind : std::uint8_t {
  kConst,   // immediate from configuration cache; 0 inputs
  kLoad,    // memory read via a row read-bus; 0 inputs (address is affine)
  kStore,   // memory write via the row write-bus; 1 input
  kAdd,     // 2 inputs
  kSub,     // 2 inputs
  kMult,    // 2 inputs; the paper's area/delay-critical resource
  kAbs,     // 1 input
  kShift,   // 1 input, immediate shift amount (negative = right shift)
  kRoute,   // 1 input; move a value to another PE without computation
  kNop,     // 0 inputs
};

/// Number of dataflow inputs the op kind consumes.
int op_arity(OpKind kind);

/// Short mnemonic ("mult", "add", ...), matching the paper's Table 3 names.
const char* op_name(OpKind kind);

/// One/two letter symbol used by the schedule pretty-printer
/// ("Ld", "St", "*", "+", "-", "abs", "<<", "→", ".").
const char* op_symbol(OpKind kind);

/// True for kLoad/kStore (they occupy row data buses).
bool is_memory_op(OpKind kind);

/// True for ops executed on the area/delay-critical resource that the RSP
/// template extracts and shares (the array multiplier).
bool is_critical_op(OpKind kind);

/// True for ops that produce a value consumable by other ops.
bool produces_value(OpKind kind);

std::ostream& operator<<(std::ostream& os, OpKind kind);

}  // namespace rsp::ir
