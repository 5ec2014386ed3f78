// A workload = kernel + mapping directives + data environment + golden model.
//
// Each of the paper's Table 3 kernels is packaged as a Workload:
//   * `kernel`    — the loop-body dataflow graph and trip count;
//   * `array`     — the array geometry it targets (8×8 for the paper suite);
//   * `hints`     — how iterations are laid out (lanes/columns/stagger);
//   * `reduction` — optional cross-PE reduction epilogue;
//   * `setup`     — allocates and deterministically initialises memory;
//   * `golden`    — an independent C++ reference computing the expected
//                   final memory (NOT via the IR interpreter, so kernel
//                   construction bugs cannot cancel out). The one exception
//                   is the generated `gen:<seed>` family (src/gen), whose
//                   golden is interpreter-derived by design — the generator
//                   emits arbitrary graphs no hand-written model could
//                   anticipate, and the interpreter is the semantic
//                   authority the simulator is differentially fuzzed
//                   against (docs/GENERATOR.md).
#pragma once

#include <functional>
#include <string>

#include "arch/array.hpp"
#include "ir/interp.hpp"
#include "ir/kernel.hpp"
#include "sched/mapping.hpp"

namespace rsp::kernels {

struct Workload {
  std::string name;           ///< canonical name matching the paper tables
  ir::LoopKernel kernel;
  arch::ArraySpec array;
  sched::MappingHints hints;
  sched::ReductionSpec reduction;
  std::function<void(ir::Memory&)> setup;
  std::function<void(ir::Memory&)> golden;
};

/// Deterministic input vector in [lo, hi], seeded by (tag, length).
/// Throws InvalidArgumentError when lo > hi.
std::vector<std::int64_t> deterministic_data(const std::string& tag,
                                             std::size_t length,
                                             std::int64_t lo, std::int64_t hi);

}  // namespace rsp::kernels
