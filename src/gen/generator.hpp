// Seeded random-kernel generator (ROADMAP "open the scenario space").
//
// `generate_workload()` turns a 64-bit seed into a legal-by-construction
// `kernels::Workload`: a random DAG body over the existing ir::Op set, a
// random-but-valid mapping (lanes/stagger/columns/row-bands), an optional
// global reduction built on the PE-revisiting carried distance, a
// deterministic seeded memory environment, and a golden model.
//
// Legality invariants (docs/GENERATOR.md spells them out):
//   * lanes <= rows and columns <= cols, so the mapper never runs out of PEs;
//   * the only carried dependence is an accumulator at distance
//     lanes x columns with cycle_row_bands off — iteration i and
//     i + distance land on the same PE, so the chain is trivially routable;
//   * same-iteration edges point backwards by construction (GraphBuilder);
//   * load/store index functions are affine with non-negative addresses and
//     the setup sizes every array to the maximum touched index;
//   * every node tracks a magnitude bound and is renormalised (arithmetic
//     right shift) once it could exceed kNodeMagnitudeCap, so exact-mode
//     evaluation never reaches signed-overflow UB.
//
// Unlike the paper-suite workloads, whose goldens are independent C++
// references, the generated family's golden is *derived from the reference
// interpreter* (`reference_execute`) — this is the one catalogue family
// where that is the right trade: the interpreter is the semantic authority
// the simulator is tested against, and the generator emits arbitrary
// graphs no hand-written model could anticipate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ir/interp.hpp"
#include "ir/unroll.hpp"
#include "kernels/workload.hpp"

namespace rsp::gen {

/// Bound on any pool value's magnitude; results that could exceed it are
/// renormalised with an arithmetic right shift before they re-enter the
/// operand pool (see the overflow invariant in the header comment).
inline constexpr std::int64_t kNodeMagnitudeCap = std::int64_t{1} << 26;

/// What varies between generated workloads. Everything else the generator
/// draws from — size bounds, op-mix weights, the reduction and second-store
/// probabilities — is a constant of generator.cpp (docs/GENERATOR.md lists
/// them), and the golden closure evaluates under DatapathMode::kExact.
struct GeneratorConfig {
  std::uint64_t seed = 0;

  /// Input data and constants are drawn from [-value_magnitude,
  /// value_magnitude]. Raise it (e.g. to a few hundred) to force wrap16 vs
  /// exact divergence through multiplications.
  std::int64_t value_magnitude = 64;

  /// Throws InvalidArgumentError unless value_magnitude is in [1, 2^20].
  void validate() const;
};

/// Deterministically generates one workload from `config`. The result is
/// named `gen:<seed>` and is fully self-contained (setup + golden).
kernels::Workload generate_workload(const GeneratorConfig& config);

/// "gen:<seed>" — the catalogue spelling of a generated kernel.
std::string gen_name(std::uint64_t seed);

/// Parses "gen:<decimal-seed>"; nullopt when `name` is not of that form.
std::optional<std::uint64_t> parse_gen_name(const std::string& name);

/// Runs the reference interpreter over `unrolled` against `memory` and
/// applies the kAll reduction epilogue (sum of the accumulator's final value
/// per residue class modulo the carried distance, wrapped once under
/// kWrap16 — modular addition is associative, so the mapper's tree order is
/// irrelevant). Returns the interpreter result. Throws InvalidArgumentError
/// for kPerRow reductions, which the generator never emits.
ir::InterpResult reference_run(const ir::LoopKernel& kernel,
                               const sched::ReductionSpec& reduction,
                               const ir::UnrolledGraph& unrolled,
                               ir::Memory& memory, ir::DatapathMode mode);

/// Convenience wrapper: unrolls `w.kernel` and calls `reference_run`. The
/// generated workloads' golden closures are exactly this at kExact.
void reference_execute(const kernels::Workload& w, ir::Memory& memory,
                       ir::DatapathMode mode);

}  // namespace rsp::gen
