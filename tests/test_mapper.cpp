#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "ir/builder.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "runtime/eval_cache.hpp"
#include "sched/mapper.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rsp::sched {
namespace {

ir::LoopKernel tiny_kernel(std::int64_t trips) {
  ir::GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k; });
  auto y = b.load("y", [](std::int64_t k) { return k; });
  auto m = b.mult(x, y);
  b.store("z", [](std::int64_t k) { return k; }, m);
  return ir::LoopKernel("tiny", b.take(), trips);
}

TEST(MappingHints, Validation) {
  MappingHints h;
  h.lanes = 0;
  EXPECT_THROW(h.validate(), InvalidArgumentError);
  h = MappingHints{};
  h.stagger = -1;
  EXPECT_THROW(h.validate(), InvalidArgumentError);
  h = MappingHints{};
  h.columns = 0;
  EXPECT_THROW(h.validate(), InvalidArgumentError);
  EXPECT_NO_THROW(MappingHints{}.validate());
}

TEST(Mapper, PlacesWavesColumnRoundRobin) {
  const arch::ArraySpec array;
  LoopPipeliner mapper(array);
  MappingHints hints;
  hints.lanes = 4;
  hints.columns = 3;
  const PlacedProgram p = mapper.map(tiny_kernel(24), hints);
  // iteration 0 → wave 0 lane 0 → PE(0,0); iteration 5 → wave 1 lane 1 →
  // PE(1,1); iteration 13 → wave 3 lane 1 → column 3 % 3 = 0.
  const ir::UnrolledGraph u(tiny_kernel(24));
  auto pe_of = [&](std::int64_t iter) { return p.pe(u.id_of(0, iter)); };
  EXPECT_EQ(pe_of(0), (arch::PeCoord{0, 0}));
  EXPECT_EQ(pe_of(5), (arch::PeCoord{1, 1}));
  EXPECT_EQ(pe_of(13), (arch::PeCoord{1, 0}));
}

TEST(Mapper, RowBandsCycleWhenEnabled) {
  const arch::ArraySpec array;  // 8 rows
  LoopPipeliner mapper(array);
  MappingHints hints;
  hints.lanes = 2;
  hints.columns = 2;
  hints.cycle_row_bands = true;  // 4 bands of 2 rows
  const PlacedProgram p = mapper.map(tiny_kernel(16), hints);
  const ir::UnrolledGraph u(tiny_kernel(16));
  auto pe_of = [&](std::int64_t iter) { return p.pe(u.id_of(0, iter)); };
  EXPECT_EQ(pe_of(0).row, 0);   // wave 0 band 0
  EXPECT_EQ(pe_of(4).row, 2);   // wave 2 band 1
  EXPECT_EQ(pe_of(8).row, 4);   // wave 4 band 2
  EXPECT_EQ(pe_of(12).row, 6);  // wave 6 band 3
}

TEST(Mapper, NotBeforeEncodesNominalLockstepSlot) {
  const arch::ArraySpec array;
  LoopPipeliner mapper(array);
  MappingHints hints;
  hints.lanes = 8;
  hints.stagger = 3;
  const PlacedProgram p = mapper.map(tiny_kernel(32), hints);
  const ir::UnrolledGraph u(tiny_kernel(32));
  // iteration 17 → wave 2: not_before = 2·3 + slot.
  for (ir::NodeId slot = 0; slot < 4; ++slot)
    EXPECT_EQ(p.not_before(u.id_of(slot, 17)), 6 + slot);
}

TEST(Mapper, PrioritiesStrictlyIncreaseAlongEdges) {
  for (const auto& w : kernels::paper_suite()) {
    LoopPipeliner mapper(w.array);
    const PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
    EXPECT_NO_THROW(p.validate()) << w.name;
  }
}

TEST(Mapper, EveryUnrolledOpIsPlacedExactlyOnce) {
  const auto w = kernels::find_workload("ICCG");
  const ir::UnrolledGraph u(w.kernel);
  LoopPipeliner mapper(w.array);
  const PlacedProgram p = mapper.map(w.kernel, u, w.hints, w.reduction);
  ASSERT_GE(p.size(), u.size());
  for (ir::OpId id = 0; id < u.size(); ++id) {
    EXPECT_EQ(p.source(id), id);
    EXPECT_EQ(p.kind(id), u.kind(id));
  }
  for (ProgIndex i = u.size(); i < p.size(); ++i)
    EXPECT_EQ(p.source(i), ir::kInvalidOp);
}

TEST(Mapper, InfeasibleHintsRejected) {
  const arch::ArraySpec array;  // 8×8
  LoopPipeliner mapper(array);
  MappingHints too_tall;
  too_tall.lanes = 9;
  EXPECT_THROW(mapper.map(tiny_kernel(9), too_tall), InfeasibleError);
  MappingHints too_wide;
  too_wide.columns = 9;
  EXPECT_THROW(mapper.map(tiny_kernel(9), too_wide), InfeasibleError);
}

TEST(Mapper, UnroutableCarriedDependenceDiagnosed) {
  // Accumulator distance 3 with 2 lanes: iteration 5 (wave 2, lane 1) needs
  // iteration 2's value (wave 1, lane 0) — different row AND column.
  ir::GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k; });
  b.accumulate(x, 0, 3);
  const ir::LoopKernel k("bad-chain", b.take(), 8);
  LoopPipeliner mapper(arch::ArraySpec{});
  MappingHints hints;
  hints.lanes = 2;
  hints.columns = 4;
  EXPECT_THROW(mapper.map(k, hints), InvalidArgumentError);
}

TEST(Mapper, UnnamedArrayRejected) {
  ir::GraphBuilder b;
  auto x = b.load("", [](std::int64_t k) { return k; });
  b.store("y", [](std::int64_t k) { return k; }, x);
  const ir::LoopKernel k("unnamed", b.take(), 4);
  EXPECT_THROW(LoopPipeliner(arch::ArraySpec{}).map(k, MappingHints{}),
               InvalidArgumentError);
}

// --------------------------------------------------------------- reduction
TEST(Mapper, ReductionAllAppendsTreeAndStore) {
  const auto w = kernels::find_workload("Inner product");
  LoopPipeliner mapper(w.array);
  const PlacedProgram with = mapper.map(w.kernel, w.hints, w.reduction);
  const PlacedProgram without = mapper.map(w.kernel, w.hints, {});
  // 64 partials → 63 combining adds + 1 store.
  EXPECT_EQ(with.size(), without.size() + 64);
  const ProgIndex last = with.size() - 1;
  EXPECT_EQ(with.kind(last), ir::OpKind::kStore);
  EXPECT_EQ(with.array_name(last), "sum");
  EXPECT_EQ(with.iter(last), -1);
  EXPECT_EQ(with.source(last), ir::kInvalidOp);
}

TEST(Mapper, ReductionPerRowProducesOneStorePerRow) {
  const auto w = kernels::find_workload("MVM");
  LoopPipeliner mapper(w.array);
  const PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  int stores = 0;
  std::set<std::int64_t> addresses;
  for (ProgIndex i = 0; i < p.size(); ++i) {
    if (p.kind(i) == ir::OpKind::kStore && p.array_name(i) == "y") {
      ++stores;
      addresses.insert(p.address(i));
      EXPECT_EQ(p.pe(i).row, p.address(i));  // row r stores y[r]
    }
  }
  EXPECT_EQ(stores, 8);
  EXPECT_EQ(addresses.size(), 8u);
}

TEST(Mapper, ReductionRequiresValidSourceAndArray) {
  const auto w = kernels::find_workload("Inner product");
  LoopPipeliner mapper(w.array);
  ReductionSpec bad = w.reduction;
  bad.source = 99;
  EXPECT_THROW(mapper.map(w.kernel, w.hints, bad), InvalidArgumentError);
  bad = w.reduction;
  bad.array.clear();
  EXPECT_THROW(mapper.map(w.kernel, w.hints, bad), InvalidArgumentError);
}

// --------------------------------------------------------------- programs
TEST(Program, AddRejectsMalformedOps) {
  PlacedProgram p(arch::ArraySpec{});
  ProgramOp op;
  op.kind = ir::OpKind::kAdd;
  op.pe = {0, 0};
  op.operands = {ProgOperand{}, ProgOperand{}};
  EXPECT_NO_THROW(p.add(op));
  ProgramOp bad = op;
  bad.pe = {8, 0};
  EXPECT_THROW(p.add(bad), InvalidArgumentError);
  ProgramOp fwd = op;
  fwd.operands = {ProgOperand{5, 0}, ProgOperand{}};
  EXPECT_THROW(p.add(fwd), InvalidArgumentError);
  ProgramOp mem;
  mem.kind = ir::OpKind::kLoad;
  mem.pe = {0, 0};
  EXPECT_THROW(p.add(mem), InvalidArgumentError);  // missing array name
}

TEST(Program, MatmulPlacementMatchesFig2Discipline) {
  const auto w = kernels::make_matmul(4);
  LoopPipeliner mapper(w.array);
  const PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  // Every op of iteration (i,j) lives on PE(i,j).
  for (ProgIndex i = 0; i < p.size(); ++i) {
    ASSERT_GE(p.iter(i), 0);
    EXPECT_EQ(p.pe(i).row, p.iter(i) % 4);
    EXPECT_EQ(p.pe(i).col, p.iter(i) / 4);
  }
}

// ------------------------------------------------------------ golden
// One line per mapped program of the 14 catalogue kernels and gen:1..200:
// its EvalCache::program_tag, its op count and a checksum over the two
// fields the tag leaves out, every op's iter and source. Each program must
// also pass PlacedProgram::validate, which map leaves to the timing profile.
std::string program_golden() {
  std::vector<kernels::Workload> domain = kernels::full_catalogue();
  for (int seed = 1; seed <= 200; ++seed)
    domain.push_back(
        kernels::find_in_catalogue("gen:" + std::to_string(seed)));
  std::ostringstream doc;
  for (const kernels::Workload& w : domain) {
    const PlacedProgram p =
        LoopPipeliner(w.array).map(w.kernel, w.hints, w.reduction);
    p.validate();
    std::uint64_t h = util::kFnvOffsetBasis;
    for (ProgIndex i = 0; i < p.size(); ++i) {
      h = util::mix64(h ^ static_cast<std::uint64_t>(p.iter(i)));
      h = util::mix64(h ^ static_cast<std::uint64_t>(p.source(i)));
    }
    doc << w.name << '\t' << runtime::EvalCache::program_tag(p) << '\t'
        << p.size() << '\t' << h << '\n';
  }
  return doc.str();
}

TEST(Program, MappedProgramsMatchCheckedInGolden) {
  std::ifstream in(RSP_TEST_DATA_DIR "/program_golden.txt", std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing tests/data/program_golden.txt";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(program_golden(), expected.str())
      << "mapped programs drifted from the checked-in golden file";
}

}  // namespace
}  // namespace rsp::sched
