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

/// Relative op-mix weights for body construction (need not sum to anything
/// particular; all zero is invalid).
struct OpMix {
  int add = 20;
  int sub = 15;
  int mult = 25;
  int abs = 10;
  int shift = 10;
  int load = 12;
  int constant = 8;

  int total() const { return add + sub + mult + abs + shift + load + constant; }
};

/// Bound on any pool value's magnitude; results that could exceed it are
/// renormalised with an arithmetic right shift before they re-enter the
/// operand pool (see the overflow invariant in the header comment).
inline constexpr std::int64_t kNodeMagnitudeCap = std::int64_t{1} << 26;

struct GeneratorConfig {
  std::uint64_t seed = 0;

  /// Arithmetic/load body nodes beyond the initial loads.
  int min_body_ops = 3;
  int max_body_ops = 16;

  std::int64_t min_trips = 4;
  std::int64_t max_trips = 64;

  /// PE-array geometry bounds (inclusive).
  int min_rows = 4;
  int max_rows = 8;
  int min_cols = 4;
  int max_cols = 8;

  OpMix mix;

  /// Probability of a global (kAll) reduction epilogue.
  double reduction_probability = 0.35;
  /// Probability of a second store (to a distinct array).
  double second_store_probability = 0.25;

  /// Input data and constants are drawn from [-value_magnitude,
  /// value_magnitude]. Raise it (e.g. to a few hundred) to force wrap16 vs
  /// exact divergence through multiplications.
  std::int64_t value_magnitude = 64;

  /// Datapath the workload's golden closure evaluates under. The catalogue
  /// (`gen:<seed>` names) always uses the default config, hence kExact —
  /// matching how api::Service checks `matches_golden`.
  ir::DatapathMode golden_mode = ir::DatapathMode::kExact;

  /// Throws InvalidArgumentError naming the offending knob.
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
/// generated workloads' golden closures are exactly this at `golden_mode`.
void reference_execute(const kernels::Workload& w, ir::Memory& memory,
                       ir::DatapathMode mode);

}  // namespace rsp::gen
