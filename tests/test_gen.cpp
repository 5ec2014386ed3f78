// src/gen: the seeded random-kernel generator and the differential fuzzing
// harness. Suites prefixed Gen* — GenCatalogue and GenFuzz also run under
// the tsan preset (generated-name resolution is hit from concurrent Service
// dispatch threads).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "gen/fuzz.hpp"
#include "gen/generator.hpp"
#include "ir/builder.hpp"
#include "kernels/registry.hpp"
#include "util/error.hpp"

namespace rsp {
namespace {

// ------------------------------------------------------------ configuration
TEST(GenConfig, ValidatesEveryKnob) {
  gen::GeneratorConfig config;
  EXPECT_NO_THROW(config.validate());

  gen::GeneratorConfig bad = config;
  bad.min_body_ops = 0;
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
  bad = config;
  bad.min_body_ops = 9;
  bad.max_body_ops = 8;
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
  bad = config;
  bad.max_trips = 1 << 20;
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
  bad = config;
  bad.min_rows = 0;
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
  bad = config;
  bad.min_cols = 1;  // reductions need lanes x columns >= 2
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
  bad = config;
  bad.mix = gen::OpMix{0, 0, 0, 0, 0, 0, 0};
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
  bad = config;
  bad.mix.mult = -1;
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
  bad = config;
  bad.reduction_probability = 1.5;
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
  bad = config;
  bad.value_magnitude = 0;
  EXPECT_THROW(bad.validate(), InvalidArgumentError);
}

TEST(GenConfig, NameRoundTrip) {
  EXPECT_EQ(gen::gen_name(42), "gen:42");
  EXPECT_EQ(gen::parse_gen_name("gen:42"), 42u);
  EXPECT_EQ(gen::parse_gen_name("gen:0"), 0u);
  EXPECT_EQ(gen::parse_gen_name("gen:18446744073709551615"),
            ~std::uint64_t{0});
  EXPECT_FALSE(gen::parse_gen_name("gen:"));
  EXPECT_FALSE(gen::parse_gen_name("gen:abc"));
  EXPECT_FALSE(gen::parse_gen_name("gen:-1"));
  EXPECT_FALSE(gen::parse_gen_name("gen:1 "));
  EXPECT_FALSE(gen::parse_gen_name("gen:18446744073709551616"));  // overflow
  EXPECT_FALSE(gen::parse_gen_name("SAD"));
  EXPECT_FALSE(gen::parse_gen_name("generic"));
}

// ------------------------------------------------------------- determinism
TEST(GenDeterminism, SameSeedSameWorkload) {
  gen::GeneratorConfig config;
  config.seed = 7;
  const kernels::Workload a = gen::generate_workload(config);
  const kernels::Workload b = gen::generate_workload(config);
  EXPECT_EQ(a.name, "gen:7");
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.kernel.trip_count(), b.kernel.trip_count());
  ASSERT_EQ(a.kernel.body().size(), b.kernel.body().size());
  for (ir::NodeId id = 0; id < a.kernel.body().size(); ++id) {
    EXPECT_EQ(a.kernel.body().node(id).kind, b.kernel.body().node(id).kind);
    EXPECT_EQ(a.kernel.body().node(id).imm, b.kernel.body().node(id).imm);
  }
  EXPECT_EQ(a.hints.lanes, b.hints.lanes);
  EXPECT_EQ(a.hints.columns, b.hints.columns);
  EXPECT_EQ(a.hints.stagger, b.hints.stagger);
  EXPECT_EQ(a.hints.cycle_row_bands, b.hints.cycle_row_bands);
  EXPECT_EQ(a.reduction.scope, b.reduction.scope);

  ir::Memory ma, mb;
  a.setup(ma);
  b.setup(mb);
  EXPECT_TRUE(ma == mb);
  a.golden(ma);
  b.golden(mb);
  EXPECT_TRUE(ma == mb);
}

TEST(GenDeterminism, DifferentSeedsDiffer) {
  gen::GeneratorConfig config;
  config.seed = 1;
  const kernels::Workload a = gen::generate_workload(config);
  config.seed = 2;
  const kernels::Workload b = gen::generate_workload(config);
  ir::Memory ma, mb;
  a.setup(ma);
  b.setup(mb);
  a.golden(ma);
  b.golden(mb);
  EXPECT_FALSE(a.kernel.body().size() == b.kernel.body().size() &&
               a.kernel.trip_count() == b.kernel.trip_count() && ma == mb);
}

// --------------------------------------------- differential sweep (tentpole)
// fuzz_one over the full suite: the simulator against the interpreter in
// both datapath modes. The case name is older than the simulator's single
// engine (the dense loop now lives in test_sim.cpp as the reference).
class GenSweep : public ::testing::TestWithParam<int> {};

TEST_P(GenSweep, DenseEventInterpreterAgreeOnEveryArchitecture) {
  gen::FuzzOptions options;
  options.full_suite = true;
  const gen::FuzzReport report = gen::fuzz_one(
      0x5EED0000ull + static_cast<std::uint64_t>(GetParam()), options);
  EXPECT_TRUE(report.ok) << report.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenSweep, ::testing::Range(0, 40));

// ----------------------------------------------------------- reference model
TEST(GenReference, GoldenClosureMatchesReferenceExecute) {
  gen::GeneratorConfig config;
  config.seed = 13;  // reduction kernel (see tests/data/gen_corpus notes)
  const kernels::Workload w = gen::generate_workload(config);
  ASSERT_TRUE(w.reduction.enabled());
  ir::Memory via_golden, via_reference;
  w.setup(via_golden);
  w.setup(via_reference);
  w.golden(via_golden);
  gen::reference_execute(w, via_reference, ir::DatapathMode::kExact);
  EXPECT_TRUE(via_golden == via_reference);
}

TEST(GenReference, PerRowReductionRejected) {
  ir::GraphBuilder b;
  const ir::NodeId load = b.load("in", [](std::int64_t k) { return k; });
  const ir::NodeId acc = b.accumulate(load, 0, 1);
  const ir::LoopKernel kernel("per-row", b.take(), 4);
  sched::ReductionSpec reduction;
  reduction.scope = sched::ReductionSpec::Scope::kPerRow;
  reduction.source = acc;
  reduction.array = "red";
  const ir::UnrolledGraph unrolled(kernel);
  ir::Memory memory;
  memory.set("in", {1, 2, 3, 4});
  memory.allocate("red", 4);
  EXPECT_THROW(gen::reference_run(kernel, reduction, unrolled, memory,
                                  ir::DatapathMode::kExact),
               InvalidArgumentError);
}

// ------------------------------------------------------ catalogue resolution
TEST(GenCatalogue, FindInCatalogueResolvesGenNames) {
  const kernels::Workload w = kernels::find_in_catalogue("gen:42");
  EXPECT_EQ(w.name, "gen:42");
  gen::GeneratorConfig config;
  config.seed = 42;
  EXPECT_EQ(w.kernel.body().size(),
            gen::generate_workload(config).kernel.body().size());
}

TEST(GenCatalogue, ConstRefOverloadReturnsStableReferences) {
  const std::vector<kernels::Workload> catalogue;
  const kernels::Workload& a = kernels::find_in_catalogue(catalogue, "gen:5");
  const kernels::Workload& b = kernels::find_in_catalogue(catalogue, "gen:5");
  EXPECT_EQ(&a, &b);  // one materialisation, process-wide cache
  EXPECT_EQ(a.name, "gen:5");
}

TEST(GenCatalogue, NotFoundListsCatalogueAndGenForm) {
  try {
    kernels::find_in_catalogue("no-such-kernel");
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Hydro"), std::string::npos) << what;
    EXPECT_NE(what.find("SAD"), std::string::npos) << what;
    EXPECT_NE(what.find("gen:<seed>"), std::string::npos) << what;
  }
}

TEST(GenCatalogue, FindWorkloadNotFoundListsPaperSuite) {
  try {
    kernels::find_workload("no-such-kernel");
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Hydro"), std::string::npos) << what;
    EXPECT_NE(what.find("2D-FDCT"), std::string::npos) << what;
    EXPECT_NE(what.find("gen:<seed>"), std::string::npos) << what;
  }
}

TEST(GenCatalogue, MalformedGenNamesAreNotFound) {
  for (const char* name : {"gen:", "gen:abc", "gen:-1", "gen:1x",
                           "gen:18446744073709551616"})
    EXPECT_THROW(kernels::find_in_catalogue(name), NotFoundError) << name;
}

TEST(GenCatalogue, ServiceServesGeneratedKernels) {
  api::ServiceOptions options;
  options.max_inflight = 2;
  const api::Service service(options);

  const api::EvalResponse eval = service.eval({"gen:9"});
  EXPECT_EQ(eval.kernel, "gen:9");
  EXPECT_EQ(eval.rows.size(), 9u);

  EXPECT_TRUE(service.simulate({"gen:9", "Base"}).matches_golden);

  // Concurrent dispatch resolves the same gen name from several threads —
  // the registry cache must hand every thread the same stable workload.
  std::vector<std::future<util::Json>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(service.submit(api::SimulateRequest{"gen:11", "RS#2"}));
  for (auto& f : futures) {
    const util::Json body = f.get();
    EXPECT_TRUE(body.at("ok").as_bool()) << body.dump();
  }
}

// -------------------------------------------------- wrap16 datapath coverage
TEST(GenWrap16, DivergenceDetectedAcrossSixteenGeneratedKernels) {
  // High-magnitude inputs force values past the 16-bit datapath; the exact
  // and wrap16 references must visibly diverge (not silently agree) on at
  // least 16 of these kernels while the simulators track the interpreter
  // under *both* modes (fuzz_one always checks kExact and kWrap16). The
  // window is deterministic: seeds 2000..2023 at magnitude 20000 yield 20
  // divergent kernels; the floor of 16 leaves room for generator drift.
  gen::FuzzOptions options;
  options.config.value_magnitude = 20000;
  int divergent = 0;
  for (std::uint64_t seed = 2000; seed < 2024; ++seed) {
    gen::GeneratorConfig config = options.config;
    config.seed = seed;
    const kernels::Workload w = gen::generate_workload(config);
    ir::Memory exact, wrapped;
    w.setup(exact);
    w.setup(wrapped);
    gen::reference_execute(w, exact, ir::DatapathMode::kExact);
    gen::reference_execute(w, wrapped, ir::DatapathMode::kWrap16);
    if (!(exact == wrapped)) ++divergent;

    const gen::FuzzReport report = gen::fuzz_one(seed, options);
    EXPECT_TRUE(report.ok) << report.detail;
  }
  EXPECT_GE(divergent, 16) << "wrap16 coverage collapsed: only " << divergent
                           << "/24 generated kernels diverge from exact";
}

// ------------------------------------------------------------------ harness
TEST(GenFuzz, RandomTrialsPass) {
  const gen::FuzzSummary summary = gen::fuzz_many(1000, 25);
  EXPECT_EQ(summary.trials, 25);
  for (const gen::FuzzReport& f : summary.failures) ADD_FAILURE() << f.detail;
}

TEST(GenFuzz, TrialSeedsAreSequentialAndReproducible) {
  std::vector<std::uint64_t> seeds;
  gen::fuzz_many(500, 5, {},
                 [&](const gen::FuzzReport& r) { seeds.push_back(r.seed); });
  ASSERT_EQ(seeds.size(), 5u);
  for (std::size_t i = 0; i < seeds.size(); ++i) EXPECT_EQ(seeds[i], 500 + i);
}

// The acceptance demonstration: a deliberately-injected simulator bug (the
// simulator's final memory corrupted by one element) must be caught by the
// comparison with the interpreter.
TEST(GenFuzz, InjectedSimulatorBugIsCaught) {
  gen::FuzzOptions options;
  options.inject_event_bug = true;
  const gen::FuzzReport report = gen::fuzz_one(3, options);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("seed 3"), std::string::npos) << report.detail;
  EXPECT_NE(report.detail.find("diverges from the reference interpreter"),
            std::string::npos)
      << report.detail;
}

TEST(GenFuzz, CorpusReplaysCleanOnFullSuite) {
  const std::vector<std::uint64_t> seeds =
      gen::load_corpus(std::string(RSP_TEST_DATA_DIR) + "/gen_corpus");
  ASSERT_FALSE(seeds.empty());
  gen::FuzzOptions options;
  options.full_suite = true;
  for (const std::uint64_t seed : seeds) {
    const gen::FuzzReport report = gen::fuzz_one(seed, options);
    EXPECT_TRUE(report.ok) << report.detail;
  }
}

TEST(GenFuzz, LoadCorpusParsesCommentsAndRejectsJunk) {
  const std::string path =
      ::testing::TempDir() + "/gen_corpus_parse_test.txt";
  {
    std::ofstream file(path);
    file << "# header comment\n\n  12  # trailing comment\n34\n";
  }
  EXPECT_EQ(gen::load_corpus(path), (std::vector<std::uint64_t>{12, 34}));
  {
    std::ofstream file(path);
    file << "12\nnot-a-seed\n";
  }
  EXPECT_THROW(gen::load_corpus(path), InvalidArgumentError);
  std::remove(path.c_str());
  EXPECT_THROW(gen::load_corpus("/nonexistent/gen_corpus"), NotFoundError);
}

TEST(GenFuzz, ServiceSmokePasses) {
  const gen::FuzzReport report = gen::service_smoke(9);
  EXPECT_TRUE(report.ok) << report.detail;
}

}  // namespace
}  // namespace rsp
