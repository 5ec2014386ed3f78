// RSP design space exploration (paper §4, Fig. 7).
//
// Inputs: a *domain* — the set of critical loops profiled from the target
// applications — and the base array geometry. The explorer:
//   1. maps every kernel once and schedules it on the base architecture
//      (the "initial configuration contexts");
//   2. enumerates RSP parameter combinations (units per row, units per
//      column, pipeline stages);
//   3. estimates hardware cost with eq. (2) and performance with the fast
//      stall estimate, rejecting points that violate the cost constraint
//      or the performance floor. The paper calls that estimate an upper
//      bound of the performance; it held on the paper domain's 97 grid
//      points, but elsewhere it is not a bound in either direction, and
//      the exhaustive oracle (bench/bench_dse_oracle.cpp, golden.dse_oracle)
//      records where it costs the selection its optimum;
//   4. keeps the Pareto points of (estimated area, estimated time);
//   5. evaluates the survivors exactly (full rescheduling of every kernel)
//      and selects the optimum under the chosen objective.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/estimate.hpp"
#include "kernels/workload.hpp"
#include "sched/mapper.hpp"
#include "sched/report.hpp"
#include "synth/synthesis.hpp"

namespace rsp::dse {

struct DesignPoint {
  int units_per_row = 0;
  int units_per_col = 0;
  int stages = 1;

  bool is_base() const { return units_per_row == 0 && units_per_col == 0; }
  std::string label() const;
};

struct Candidate {
  DesignPoint point;
  arch::Architecture architecture;
  double area_estimate = 0.0;      ///< eq. (2), slices
  double area_synthesized = 0.0;   ///< calibrated synthesis estimate
  double clock_ns = 0.0;
  /// Σ over kernels of the fast estimate; not a bound off the paper
  /// domain (see the file comment).
  long estimated_cycles = 0;
  double estimated_time_ns = 0.0;
  bool rejected = false;
  std::string reject_reason;
  bool pareto = false;
  // Exact numbers, filled for Pareto survivors only:
  bool evaluated = false;
  long exact_cycles = 0;
  double exact_time_ns = 0.0;
  long total_stalls = 0;
};

enum class Objective {
  kMinTime,             ///< fastest total execution time
  kMinArea,             ///< smallest array
  kMinAreaTimeProduct,  ///< area × time (default)
};

struct ExplorerConfig {
  int max_units_per_row = 4;
  int max_units_per_col = 4;
  int max_stages = 4;
  /// Reject when eq. (2) cost is not strictly below `max_area_ratio` × base.
  double max_area_ratio = 1.0;
  /// Reject when estimated time exceeds this multiple of the base time
  /// ("performance too low").
  double max_time_ratio = 1.5;
  /// Pareto relaxation: survivors may be up to (1+ε) worse in both
  /// objectives than a dominating point. The performance numbers at this
  /// stage are estimates, so a small ε keeps genuinely competitive designs
  /// alive for exact evaluation. They were optimistic on the paper
  /// domain's 97 points but are not a bound in either direction elsewhere;
  /// the oracle (bench/bench_dse_oracle.cpp) pins the selections ε loses.
  double pareto_epsilon = 0.05;
  Objective objective = Objective::kMinAreaTimeProduct;

  /// Throws InvalidArgumentError naming the offending field: negative unit
  /// bounds, max_stages < 1, non-positive ratios, or a negative epsilon
  /// would silently explore an empty or nonsensical grid. (Zero unit
  /// bounds stay legal — they restrict the grid to one sharing dimension,
  /// or to the base point alone.)
  void validate() const;
};

struct ExplorationResult {
  std::vector<Candidate> candidates;   ///< every enumerated point
  double base_area = 0.0;              ///< synthesized base area
  long base_cycles = 0;                ///< Σ base cycles over the domain
  double base_time_ns = 0.0;
  int selected = -1;                   ///< index into candidates, -1 = none

  const Candidate& best() const;
  std::vector<const Candidate*> pareto_points() const;
};

/// Step-1 product for one kernel: the placed program, its schedule on the
/// base architecture (one of the paper's "initial configuration
/// contexts") and the program's timing profile, which step 5 measures
/// every survivor through. This is what the runtime's mapping memo-cache
/// stores; the profile's stall-free memo is thread-safe, so one record
/// serves every request.
struct KernelPrep {
  sched::PlacedProgram program;
  sched::ConfigurationContext base_context;
  sched::TimingProfile timing_profile;
};

/// The canonical step-1 computation for one kernel on its own array
/// geometry: map, build the timing profile, schedule on the base
/// architecture, legality-check.
/// Explorer::explore and the mapping memo-cache fill both go through this
/// one function, so a cached step-1 product cannot drift from a fresh one.
KernelPrep prepare_kernel(const kernels::Workload& workload);

/// What the step-1 hook hands `Explorer::explore` for one kernel: the
/// shared step-1 record and, optionally, the estimate profile of its base
/// context (built from `prep->base_context` when null). Both are safe to
/// share (the record's one mutable part, its timing profile's stall-free
/// memo, is atomic), so a memo cache can hand out the same objects to
/// every request.
struct PreparedKernel {
  std::shared_ptr<const KernelPrep> prep;
  std::shared_ptr<const core::EstimateProfile> profile;
};

/// Step-1 hook for `Explorer::explore`: prepares kernel `kernel_index` of
/// the domain. Empty = prepare_kernel with no profile, the serial path;
/// api::Service interposes the mapping memo-cache here.
using PrepareFn = std::function<PreparedKernel(
    std::size_t kernel_index, const kernels::Workload& workload)>;

/// Measurement hook for `evaluate_exact`: returns the PerfPoint of placed
/// program `program_index` on `architecture`. The serial path calls
/// sched::measure on the kernel's KernelPrep::timing_profile directly;
/// api::Service interposes the evaluation memo-cache here.
using MeasureFn = std::function<sched::PerfPoint(
    std::size_t program_index, const arch::Architecture& architecture)>;

/// Estimation hook for `Explorer::estimate_candidate`, the step-2/3
/// analogue of MeasureFn: returns the fast performance estimate of kernel
/// `kernel_index`'s base context on `architecture`. Every sweep queries one
/// core::EstimateProfile per kernel here.
using EstimateFn = std::function<core::PerfEstimate(
    std::size_t kernel_index, const arch::Architecture& architecture)>;

/// Step 5 for a single Pareto survivor: accumulates the per-kernel
/// measurements (in program order, so the reduction is deterministic) into
/// `cand.exact_*`. No-op precondition: `cand.pareto` should be true.
void evaluate_exact(Candidate& cand, std::size_t program_count,
                    const MeasureFn& measure);

class Explorer {
 public:
  /// Throws InvalidArgumentError when `config` fails validate() or its grid
  /// exceeds the array: more units per row than columns, more units per
  /// column than rows, or more than arch::kMaxPipelineStages stages.
  Explorer(arch::ArraySpec array, ExplorerConfig config = {},
           synth::SynthesisModel synth = synth::SynthesisModel());

  /// Runs the full Fig. 7 refinement flow on a domain of kernels. Step 1
  /// goes through `prepare` once per kernel and step 5 through `measure`
  /// once per (Pareto survivor, kernel); empty hooks compute both directly.
  /// The hooks run on the calling thread: `prepare` for every kernel in
  /// domain order, then `measure` survivor by survivor in candidate order.
  /// Throws InvalidArgumentError on an empty domain or a kernel whose array
  /// geometry differs from the explorer's, before any hook runs.
  ExplorationResult explore(const std::vector<kernels::Workload>& domain,
                            const PrepareFn& prepare = {},
                            const MeasureFn& measure = {}) const;

  /// Step 6: fills `result.selected` with the best evaluated candidate
  /// under the configured objective (-1 when none is evaluated).
  void select_optimum(ExplorationResult& result) const;

  // ---- The individual stages of `explore`, exposed so a replay of the
  // ---- flow (perfbench's traced dse_cold) runs exactly the same loop
  // ---- bodies. All are const and thread-safe (the models hold no mutable
  // ---- state).

  /// The base architecture every candidate is estimated against.
  arch::Architecture base_architecture() const;

  /// Raw eq. (2) base-PE area — the denominator of the cost-constraint
  /// ratio in step 3.
  double base_area_raw() const;

  /// Step 2's enumeration order: the loop nest over (units per row, units
  /// per column, stages), flattened. Candidate i of every exploration
  /// corresponds to point i of this vector.
  std::vector<DesignPoint> enumerate_points() const;

  /// The architecture a design point denotes: `base` for the base point,
  /// the custom RSP(label) construction otherwise. Every path that turns a
  /// DesignPoint into hardware goes through this one function so the
  /// construction cannot drift.
  arch::Architecture point_architecture(const DesignPoint& point,
                                        const arch::Architecture& base) const;

  /// Steps 2–3 for one design point: architecture construction, area/clock
  /// models, the estimated-cycle sum over kernels 0..kernel_count-1 (in
  /// domain order, through `estimate`) and the two reject checks. Pure
  /// function of its arguments when `estimate` is.
  Candidate estimate_candidate(const DesignPoint& point,
                               const arch::Architecture& base,
                               std::size_t kernel_count,
                               const EstimateFn& estimate,
                               double base_area_raw,
                               double base_time_ns) const;

  /// Step 4: flags the ε-Pareto front of the non-rejected candidates.
  void pareto_filter(ExplorationResult& result) const;

  const arch::ArraySpec& array() const { return array_; }
  const ExplorerConfig& config() const { return config_; }
  const synth::SynthesisModel& synthesis() const { return synth_; }

 private:
  arch::ArraySpec array_;
  ExplorerConfig config_;
  synth::SynthesisModel synth_;
};

}  // namespace rsp::dse
