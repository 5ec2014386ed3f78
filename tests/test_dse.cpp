#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "util/error.hpp"

namespace rsp::dse {
namespace {

// ------------------------------------------------------------------ pareto
struct Pt {
  double a, b;
};

TEST(Pareto, ExtractsNonDominatedSet) {
  const std::vector<Pt> pts = {{1, 5}, {2, 2}, {3, 4}, {5, 1}, {4, 4}};
  const auto front = pareto_front<Pt>(
      pts, [](const Pt& p) { return p.a; }, [](const Pt& p) { return p.b; });
  // {3,4} dominated by {2,2}; {4,4} dominated by {2,2}.
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Pareto, DuplicatesKeepFirst) {
  const std::vector<Pt> pts = {{1, 1}, {1, 1}};
  const auto front = pareto_front<Pt>(
      pts, [](const Pt& p) { return p.a; }, [](const Pt& p) { return p.b; });
  EXPECT_EQ(front, std::vector<std::size_t>{0});
}

TEST(Pareto, SinglePointSurvives) {
  const std::vector<Pt> pts = {{7, 7}};
  const auto front = pareto_front<Pt>(
      pts, [](const Pt& p) { return p.a; }, [](const Pt& p) { return p.b; });
  EXPECT_EQ(front.size(), 1u);
}

// ---------------------------------------------------------------- explorer
TEST(Explorer, LabelsAndValidation) {
  EXPECT_EQ((DesignPoint{0, 0, 1}).label(), "Base");
  EXPECT_EQ((DesignPoint{2, 0, 1}).label(), "2r");
  EXPECT_EQ((DesignPoint{2, 1, 2}).label(), "2r+1c/p2");
  ExplorerConfig bad;
  bad.max_stages = 0;
  EXPECT_THROW(Explorer(arch::ArraySpec{}, bad), InvalidArgumentError);
}

TEST(Explorer, ConfigValidationNamesTheOffendingField) {
  const auto expect_rejected = [](ExplorerConfig config,
                                  const std::string& needle) {
    try {
      config.validate();
      FAIL() << "expected rejection mentioning " << needle;
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  ExplorerConfig config;
  config.validate();  // defaults are well-formed

  config.max_units_per_row = -1;
  expect_rejected(config, "max_units_per_row");
  config = ExplorerConfig{};
  config.max_units_per_col = -2;
  expect_rejected(config, "max_units_per_col");
  config = ExplorerConfig{};
  config.max_stages = 0;
  expect_rejected(config, "max_stages");
  config = ExplorerConfig{};
  config.max_area_ratio = 0.0;
  expect_rejected(config, "max_area_ratio");
  config = ExplorerConfig{};
  config.max_time_ratio = -1.0;
  expect_rejected(config, "max_time_ratio");
  config = ExplorerConfig{};
  config.pareto_epsilon = -0.01;
  expect_rejected(config, "pareto_epsilon");

  // Zero unit bounds stay legal for programmatic use: they restrict the
  // grid to one sharing dimension (or the base point alone).
  config = ExplorerConfig{};
  config.max_units_per_row = 0;
  config.max_units_per_col = 0;
  config.validate();
}

TEST(Explorer, GridBoundsMustFitTheArray) {
  // enumerate_points builds every grid point, so a bound a client sets to
  // INT_MAX must be rejected, by name, before the grid is built.
  const auto expect_rejected = [](const arch::ArraySpec& array,
                                  const ExplorerConfig& config,
                                  const std::string& needle) {
    try {
      const Explorer explorer(array, config);
      FAIL() << "expected rejection mentioning " << needle;
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  // A 4x6 array: a row pool needs at most 6 units, a column pool 4.
  const arch::ArraySpec array{4, 6};
  ExplorerConfig config;
  config.max_units_per_row = 6;
  config.max_units_per_col = 4;
  config.max_stages = arch::kMaxPipelineStages;
  EXPECT_EQ(Explorer(array, config).enumerate_points().size(),
            1u + (7u * 5u - 1u) * 8u);

  ExplorerConfig too_many = config;
  too_many.max_units_per_row = 7;
  expect_rejected(array, too_many, "'max_units_per_row' (7) exceeds");
  too_many = config;
  too_many.max_units_per_col = 5;
  expect_rejected(array, too_many, "'max_units_per_col' (5) exceeds");
  too_many = config;
  too_many.max_stages = arch::kMaxPipelineStages + 1;
  expect_rejected(array, too_many, "'max_stages' (9) exceeds");
  too_many = config;
  too_many.max_units_per_row = std::numeric_limits<int>::max();
  expect_rejected(array, too_many, "max_units_per_row");

  // The default 4/4/4 grid fits every catalogue and generated array.
  std::vector<kernels::Workload> workloads = kernels::full_catalogue();
  for (int seed = 1; seed <= 20; ++seed)
    workloads.push_back(
        kernels::find_in_catalogue("gen:" + std::to_string(seed)));
  for (const kernels::Workload& w : workloads)
    EXPECT_NO_THROW(Explorer(w.array, ExplorerConfig{})) << w.name;
}

TEST(Explorer, EnumeratesTheSerialGridOrder) {
  ExplorerConfig config;
  config.max_units_per_row = 1;
  config.max_units_per_col = 1;
  config.max_stages = 2;
  const Explorer explorer(arch::ArraySpec{}, config);
  const std::vector<DesignPoint> points = explorer.enumerate_points();
  // upr-major, then upc, then stages; the base point skips stages > 1.
  std::vector<std::string> labels;
  for (const DesignPoint& p : points) labels.push_back(p.label());
  const std::vector<std::string> expected = {
      "Base", "1c", "1c/p2", "1r", "1r/p2", "1r+1c", "1r+1c/p2"};
  EXPECT_EQ(labels, expected);
}

class ExplorerFlow : public ::testing::Test {
 protected:
  static const ExplorationResult& result() {
    // Exploring the full DSP domain once is enough for all assertions.
    static const ExplorationResult r = [] {
      ExplorerConfig config;
      config.max_units_per_row = 2;
      config.max_units_per_col = 1;
      config.max_stages = 2;
      Explorer explorer(arch::ArraySpec{}, config);
      return explorer.explore(kernels::dsp_suite());
    }();
    return r;
  }
};

TEST_F(ExplorerFlow, EnumeratesExpectedPointCount) {
  // (upr 0..2) × (upc 0..1) × (stages 1..2) minus the skipped
  // base-with-pipelining point = 12 - 1 = 11.
  EXPECT_EQ(result().candidates.size(), 11u);
}

TEST_F(ExplorerFlow, BaseIsACandidateAndNotRejected) {
  const auto& cands = result().candidates;
  const auto base = std::find_if(
      cands.begin(), cands.end(),
      [](const Candidate& c) { return c.point.is_base(); });
  ASSERT_NE(base, cands.end());
  EXPECT_FALSE(base->rejected);
}

TEST_F(ExplorerFlow, SharedDesignsAreCheaperThanBase) {
  for (const Candidate& c : result().candidates) {
    if (c.point.is_base()) continue;
    EXPECT_LT(c.area_synthesized, result().base_area) << c.point.label();
  }
}

TEST_F(ExplorerFlow, ParetoPointsAreEvaluatedExactly) {
  int pareto = 0;
  for (const Candidate& c : result().candidates) {
    if (c.pareto) {
      ++pareto;
      EXPECT_TRUE(c.evaluated);
      EXPECT_GT(c.exact_cycles, 0);
      // The estimate was optimistic (paper §4) on every paper-domain point;
      // off that domain it is not a bound in either direction (see the
      // oracle, bench/bench_dse_oracle.cpp).
      EXPECT_LE(c.estimated_cycles, c.exact_cycles) << c.point.label();
    } else {
      EXPECT_FALSE(c.evaluated);
    }
  }
  EXPECT_GE(pareto, 2);
}

TEST_F(ExplorerFlow, ParetoSetIsEpsilonNonDominated) {
  // With the default ε = 0.05 relaxation, no survivor may be beaten by
  // another survivor by more than 5% in BOTH objectives.
  const auto points = result().pareto_points();
  for (const auto* x : points)
    for (const auto* y : points) {
      if (x == y) continue;
      const bool strongly_dominates =
          y->area_estimate * 1.05 <= x->area_estimate &&
          y->estimated_time_ns * 1.05 <= x->estimated_time_ns;
      EXPECT_FALSE(strongly_dominates);
    }
}

TEST(Pareto, EpsilonFrontIsSupersetOfStrictFront) {
  const std::vector<Pt> pts = {{1, 5}, {2, 2}, {3, 4}, {5, 1}, {4, 4}};
  auto a = [](const Pt& p) { return p.a; };
  auto b = [](const Pt& p) { return p.b; };
  const auto strict = pareto_front<Pt>(pts, a, b);
  const auto relaxed = epsilon_pareto_front<Pt>(pts, a, b, 0.6);
  for (std::size_t i : strict)
    EXPECT_NE(std::find(relaxed.begin(), relaxed.end(), i), relaxed.end());
  EXPECT_GE(relaxed.size(), strict.size());
}

TEST_F(ExplorerFlow, SelectsAPipelinedSharedDesign)
{
  // On the DSP domain the optimum under area×time must share AND pipeline
  // (that is the paper's whole point).
  const Candidate& best = result().best();
  EXPECT_TRUE(best.architecture.shares_multiplier());
  EXPECT_TRUE(best.architecture.pipelines_multiplier());
  EXPECT_LT(best.exact_time_ns * best.area_synthesized,
            result().base_time_ns * result().base_area);
}

TEST(Explorer, ObjectiveMinAreaPicksSmallestEvaluated) {
  ExplorerConfig config;
  config.max_units_per_row = 2;
  config.max_units_per_col = 0;
  config.max_stages = 2;
  config.objective = Objective::kMinArea;
  Explorer explorer(arch::ArraySpec{}, config);
  const auto result = explorer.explore({kernels::find_workload("MVM")});
  const Candidate& best = result.best();
  for (const Candidate& c : result.candidates) {
    if (c.evaluated) {
      EXPECT_LE(best.area_synthesized, c.area_synthesized);
    }
  }
}

TEST(Explorer, RejectsTooSlowDesigns) {
  ExplorerConfig config;
  config.max_units_per_row = 1;
  config.max_units_per_col = 0;
  config.max_stages = 1;
  config.max_time_ratio = 1.0;  // nothing slower than base allowed
  Explorer explorer(arch::ArraySpec{}, config);
  // 2D-FDCT on RS#1-style sharing stalls heavily → estimated time exceeds
  // base → rejected.
  const auto result = explorer.explore({kernels::find_workload("2D-FDCT")});
  bool saw_rejection = false;
  for (const Candidate& c : result.candidates)
    if (c.rejected) {
      saw_rejection = true;
      EXPECT_FALSE(c.reject_reason.empty());
    }
  EXPECT_TRUE(saw_rejection);
}

TEST(Explorer, ThrowsOnEmptyDomainOrWrongGeometry) {
  Explorer explorer((arch::ArraySpec()));
  EXPECT_THROW(explorer.explore({}), InvalidArgumentError);
  auto w = kernels::make_matmul(4);  // 4×4 kernel, 8×8 explorer
  EXPECT_THROW(explorer.explore({w}), InvalidArgumentError);
  // The whole domain is checked before step 1, so a memoizing hook never
  // prepares the kernels ahead of the mismatch.
  int prepared = 0;
  const PrepareFn prepare = [&prepared](std::size_t,
                                        const kernels::Workload& kernel) {
    ++prepared;
    return PreparedKernel{
        std::make_shared<const KernelPrep>(prepare_kernel(kernel)), nullptr};
  };
  EXPECT_THROW(explorer.explore({kernels::find_workload("SAD"), w}, prepare),
               InvalidArgumentError);
  EXPECT_EQ(prepared, 0);
}

void expect_field_equal(const ExplorationResult& expected,
                        const ExplorationResult& actual) {
  EXPECT_EQ(expected.base_area, actual.base_area);
  EXPECT_EQ(expected.base_cycles, actual.base_cycles);
  EXPECT_EQ(expected.base_time_ns, actual.base_time_ns);
  EXPECT_EQ(expected.selected, actual.selected);
  ASSERT_EQ(expected.candidates.size(), actual.candidates.size());
  for (std::size_t i = 0; i < expected.candidates.size(); ++i) {
    const Candidate& e = expected.candidates[i];
    const Candidate& a = actual.candidates[i];
    const std::string label = e.point.label();
    EXPECT_EQ(label, a.point.label());
    EXPECT_EQ(e.architecture.name, a.architecture.name) << label;
    // Bitwise double equality is intended: both runs must perform the
    // same computation in the same order.
    EXPECT_EQ(e.area_estimate, a.area_estimate) << label;
    EXPECT_EQ(e.area_synthesized, a.area_synthesized) << label;
    EXPECT_EQ(e.clock_ns, a.clock_ns) << label;
    EXPECT_EQ(e.estimated_cycles, a.estimated_cycles) << label;
    EXPECT_EQ(e.estimated_time_ns, a.estimated_time_ns) << label;
    EXPECT_EQ(e.rejected, a.rejected) << label;
    EXPECT_EQ(e.reject_reason, a.reject_reason) << label;
    EXPECT_EQ(e.pareto, a.pareto) << label;
    EXPECT_EQ(e.evaluated, a.evaluated) << label;
    EXPECT_EQ(e.exact_cycles, a.exact_cycles) << label;
    EXPECT_EQ(e.exact_time_ns, a.exact_time_ns) << label;
    EXPECT_EQ(e.total_stalls, a.total_stalls) << label;
  }
}

TEST(Explorer, HookedExploreIsFieldEqualToUnhooked) {
  // api::Service interposes its memo caches through these two hooks. On
  // the paper domain's full default grid, routing step 1 (with a supplied
  // profile) and step 5 (through core::measure_perf) through them must
  // change nothing, and each hook runs exactly as often as the flow needs.
  const std::vector<kernels::Workload> domain = kernels::paper_suite();
  const Explorer explorer((arch::ArraySpec()));
  const ExplorationResult plain = explorer.explore(domain);

  std::vector<std::shared_ptr<const KernelPrep>> records(domain.size());
  std::vector<int> prepared(domain.size(), 0);
  const PrepareFn prepare = [&](std::size_t k, const kernels::Workload& w) {
    ++prepared[k];
    records[k] = std::make_shared<const KernelPrep>(prepare_kernel(w));
    return PreparedKernel{records[k],
                          std::make_shared<const core::EstimateProfile>(
                              records[k]->base_context)};
  };
  std::size_t measured = 0;
  const sched::ContextScheduler scheduler;
  const MeasureFn measure = [&](std::size_t k, const arch::Architecture& a) {
    ++measured;
    return core::measure_perf(scheduler, records[k]->timing_profile, a).perf;
  };
  const ExplorationResult hooked = explorer.explore(domain, prepare, measure);

  expect_field_equal(plain, hooked);
  ASSERT_GE(hooked.selected, 0);
  EXPECT_EQ(prepared, std::vector<int>(domain.size(), 1));
  EXPECT_EQ(measured, hooked.pareto_points().size() * domain.size());
}

}  // namespace
}  // namespace rsp::dse
