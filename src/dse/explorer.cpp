#include "dse/explorer.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "analysis/verifier.hpp"
#include "dse/pareto.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace rsp::dse {

std::string DesignPoint::label() const {
  if (is_base()) return "Base";
  std::string s;
  if (units_per_row > 0) s += std::to_string(units_per_row) + "r";
  if (units_per_col > 0)
    s += (s.empty() ? "" : "+") + std::to_string(units_per_col) + "c";
  if (stages > 1) s += "/p" + std::to_string(stages);
  return s;
}

const Candidate& ExplorationResult::best() const {
  if (selected < 0) throw NotFoundError("exploration selected no design");
  return candidates[static_cast<std::size_t>(selected)];
}

std::vector<const Candidate*> ExplorationResult::pareto_points() const {
  std::vector<const Candidate*> out;
  for (const Candidate& c : candidates)
    if (c.pareto) out.push_back(&c);
  return out;
}

void ExplorerConfig::validate() const {
  const auto reject = [](const std::string& what) {
    throw InvalidArgumentError("malformed explorer config: " + what);
  };
  if (max_units_per_row < 0) reject("'max_units_per_row' must be >= 0");
  if (max_units_per_col < 0) reject("'max_units_per_col' must be >= 0");
  if (max_stages < 1) reject("'max_stages' must be positive");
  if (!(max_area_ratio > 0.0)) reject("'max_area_ratio' must be positive");
  if (!(max_time_ratio > 0.0)) reject("'max_time_ratio' must be positive");
  if (!(pareto_epsilon >= 0.0))
    reject("'pareto_epsilon' must be non-negative");
}

Explorer::Explorer(arch::ArraySpec array, ExplorerConfig config,
                   synth::SynthesisModel synth)
    : array_(array), config_(config), synth_(std::move(synth)) {
  array_.validate();
  config_.validate();
  // enumerate_points builds every grid point, so the bounds must be finite
  // before anything else runs. A row issues at most `cols` multiplications
  // per cycle and a column at most `rows` (the bound unlimited_units uses),
  // so larger pools explore nothing new.
  const auto reject = [](const std::string& key, int value,
                         const std::string& limit) {
    throw InvalidArgumentError("malformed explorer config: '" + key + "' (" +
                               std::to_string(value) + ") exceeds " + limit);
  };
  if (config_.max_units_per_row > array_.cols)
    reject("max_units_per_row", config_.max_units_per_row,
           "the array's " + std::to_string(array_.cols) + " columns");
  if (config_.max_units_per_col > array_.rows)
    reject("max_units_per_col", config_.max_units_per_col,
           "the array's " + std::to_string(array_.rows) + " rows");
  if (config_.max_stages > arch::kMaxPipelineStages)
    reject("max_stages", config_.max_stages,
           "the template's " + std::to_string(arch::kMaxPipelineStages) +
               " pipeline stages");
}

void evaluate_exact(Candidate& cand, std::size_t program_count,
                    const MeasureFn& measure) {
  cand.evaluated = true;
  cand.exact_cycles = 0;
  cand.total_stalls = 0;
  for (std::size_t k = 0; k < program_count; ++k) {
    const sched::PerfPoint p = measure(k, cand.architecture);
    cand.exact_cycles += p.cycles;
    cand.total_stalls += p.stalls;
  }
  cand.exact_time_ns = static_cast<double>(cand.exact_cycles) * cand.clock_ns;
}

KernelPrep prepare_kernel(const kernels::Workload& workload) {
  const sched::LoopPipeliner mapper(workload.array);
  const sched::ContextScheduler scheduler;
  const arch::Architecture base =
      arch::base_architecture(workload.array.rows, workload.array.cols);
  sched::PlacedProgram program =
      mapper.map(workload.kernel, workload.hints, workload.reduction);
  sched::TimingProfile timing_profile(program);
  sched::ConfigurationContext base_context =
      scheduler.schedule(program, base);
  analysis::require_legal(base_context);
  return KernelPrep{std::move(program), std::move(base_context),
                    std::move(timing_profile)};
}

arch::Architecture Explorer::base_architecture() const {
  return arch::base_architecture(array_.rows, array_.cols);
}

double Explorer::base_area_raw() const {
  return synth_.area_model().library().base_pe().area_slices *
         array_.num_pes();
}

std::vector<DesignPoint> Explorer::enumerate_points() const {
  std::vector<DesignPoint> points;
  for (int upr = 0; upr <= config_.max_units_per_row; ++upr)
    for (int upc = 0; upc <= config_.max_units_per_col; ++upc)
      for (int stages = 1; stages <= config_.max_stages; ++stages) {
        const DesignPoint point{upr, upc, stages};
        if (point.is_base() && stages > 1) continue;  // nothing to pipeline
        points.push_back(point);
      }
  return points;
}

arch::Architecture Explorer::point_architecture(
    const DesignPoint& point, const arch::Architecture& base) const {
  if (point.is_base()) return base;
  return arch::custom_architecture("RSP(" + point.label() + ")", array_.rows,
                                   array_.cols, point.units_per_row,
                                   point.units_per_col, point.stages);
}

Candidate Explorer::estimate_candidate(const DesignPoint& point,
                                       const arch::Architecture& base,
                                       std::size_t kernel_count,
                                       const EstimateFn& estimate,
                                       double base_area_raw,
                                       double base_time_ns) const {
  Candidate cand;
  cand.point = point;
  cand.architecture = point_architecture(point, base);
  for (std::size_t k = 0; k < kernel_count; ++k)
    cand.estimated_cycles +=
        estimate(k, cand.architecture).estimated_cycles();
  cand.area_estimate = synth_.area_model().estimate(cand.architecture);
  cand.area_synthesized = synth_.area(cand.architecture);
  cand.clock_ns = synth_.clock_ns(cand.architecture);
  cand.estimated_time_ns =
      static_cast<double>(cand.estimated_cycles) * cand.clock_ns;

  if (!point.is_base() &&
      cand.area_estimate >= config_.max_area_ratio * base_area_raw) {
    cand.rejected = true;
    cand.reject_reason = "hardware cost too high (eq. 2)";
  } else if (cand.estimated_time_ns >
             config_.max_time_ratio * base_time_ns) {
    cand.rejected = true;
    cand.reject_reason = "performance too low";
  }
  return cand;
}

void Explorer::pareto_filter(ExplorationResult& result) const {
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < result.candidates.size(); ++i)
    if (!result.candidates[i].rejected) alive.push_back(i);
  std::vector<Candidate> alive_cands;
  for (std::size_t i : alive) alive_cands.push_back(result.candidates[i]);
  const std::vector<std::size_t> front = epsilon_pareto_front<Candidate>(
      alive_cands,
      [](const Candidate& c) { return c.area_estimate; },
      [](const Candidate& c) { return c.estimated_time_ns; },
      config_.pareto_epsilon);
  for (std::size_t f : front) result.candidates[alive[f]].pareto = true;
}

ExplorationResult Explorer::explore(
    const std::vector<kernels::Workload>& domain, const PrepareFn& prepare,
    const MeasureFn& measure) const {
  if (domain.empty())
    throw InvalidArgumentError("exploration requires at least one kernel");
  for (const kernels::Workload& w : domain)
    if (w.array != array_)
      throw InvalidArgumentError("workload '" + w.name +
                                 "' targets a different array geometry");

  // Step 1: initial configuration contexts on the base architecture, one
  // estimate profile per kernel.
  const arch::Architecture base = base_architecture();
  ExplorationResult result;
  std::vector<PreparedKernel> kernels;
  kernels.reserve(domain.size());
  for (std::size_t k = 0; k < domain.size(); ++k) {
    PreparedKernel kernel =
        prepare ? prepare(k, domain[k])
                : PreparedKernel{std::make_shared<const KernelPrep>(
                                     prepare_kernel(domain[k])),
                                 nullptr};
    if (!kernel.profile)
      kernel.profile = std::make_shared<const core::EstimateProfile>(
          kernel.prep->base_context);
    result.base_cycles += kernel.profile->base_cycles();
    kernels.push_back(std::move(kernel));
  }
  result.base_area = synth_.area(base);
  const double base_clock = synth_.clock_ns(base);
  result.base_time_ns = static_cast<double>(result.base_cycles) * base_clock;

  // Step 2–3: enumerate and estimate.
  const EstimateFn estimate = [&kernels](std::size_t k,
                                         const arch::Architecture& target) {
    return kernels[k].profile->estimate(target);
  };
  const double area_raw = base_area_raw();
  for (const DesignPoint& point : enumerate_points())
    result.candidates.push_back(
        estimate_candidate(point, base, kernels.size(), estimate, area_raw,
                           result.base_time_ns));

  // Step 4: Pareto filter over the surviving estimates.
  pareto_filter(result);

  // Step 5: exact evaluation of the Pareto points.
  const sched::ContextScheduler scheduler;
  const MeasureFn measure_directly = [&](std::size_t k,
                                         const arch::Architecture& a) {
    return sched::measure(scheduler, kernels[k].prep->timing_profile, a);
  };
  for (Candidate& cand : result.candidates) {
    if (!cand.pareto) continue;
    evaluate_exact(cand, kernels.size(), measure ? measure : measure_directly);
    RSP_LOG(kInfo) << "pareto point " << cand.point.label() << ": area "
                   << cand.area_synthesized << " slices, time "
                   << cand.exact_time_ns << " ns";
  }

  // Step 6: select the optimum.
  select_optimum(result);
  return result;
}

void Explorer::select_optimum(ExplorationResult& result) const {
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const Candidate& c = result.candidates[i];
    if (!c.evaluated) continue;
    double score = 0.0;
    switch (config_.objective) {
      case Objective::kMinTime:
        score = c.exact_time_ns;
        break;
      case Objective::kMinArea:
        score = c.area_synthesized;
        break;
      case Objective::kMinAreaTimeProduct:
        score = c.exact_time_ns * c.area_synthesized;
        break;
    }
    if (score < best_score) {
      best_score = score;
      result.selected = static_cast<int>(i);
    }
  }
}

}  // namespace rsp::dse
