#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "ir/unroll.hpp"
#include "util/error.hpp"

namespace rsp::ir {
namespace {

LoopKernel axpy_kernel(std::int64_t n) {
  GraphBuilder b;
  auto a = b.constant(3, "a");
  auto x = b.load("x", [](std::int64_t k) { return k; });
  auto m = b.mult(a, x);
  auto y = b.load("y", [](std::int64_t k) { return k; });
  auto s = b.add(m, y);
  b.store("out", [](std::int64_t k) { return k; }, s);
  return LoopKernel("axpy", b.take(), n);
}

// ----------------------------------------------------------------- unroll
TEST(Unroll, SizeAndIndexing) {
  const LoopKernel k = axpy_kernel(5);
  const UnrolledGraph u(k);
  EXPECT_EQ(u.size(), 5 * k.body().size());
  EXPECT_EQ(u.body_size(), k.body().size());
  const OpId id = u.id_of(2, 3);
  EXPECT_EQ(u.body_node(id), 2);
  EXPECT_EQ(u.iter(id), 3);
  EXPECT_THROW(u.id_of(99, 0), NotFoundError);
  EXPECT_THROW(u.kind(-1), NotFoundError);
}

TEST(Unroll, AddressesAreConcrete) {
  GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return 2 * k + 1; });
  b.store("y", [](std::int64_t k) { return k; }, x);
  const LoopKernel k("strided", b.take(), 4);
  const UnrolledGraph u(k);
  EXPECT_EQ(u.address(u.id_of(0, 0)), 1);
  EXPECT_EQ(u.address(u.id_of(0, 3)), 7);
}

TEST(Unroll, RejectsNegativeAddress) {
  GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k - 1; });
  b.store("y", [](std::int64_t k) { return k; }, x);
  const LoopKernel k("neg", b.take(), 2);
  EXPECT_THROW(UnrolledGraph{k}, InvalidArgumentError);
}

TEST(Unroll, CarriedInputResolvesAcrossIterations) {
  GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k; });
  auto acc = b.accumulate(x, 100, 2);
  b.store("o", [](std::int64_t k) { return k; }, acc);
  const LoopKernel k("acc2", b.take(), 5);
  const UnrolledGraph u(k);
  // Iterations 0 and 1: boundary → immediate init 100.
  EXPECT_TRUE(u.operands(u.id_of(acc, 0))[1].is_imm());
  EXPECT_EQ(u.operands(u.id_of(acc, 1))[1].imm, 100);
  // Iteration 3 reads the accumulator of iteration 1.
  EXPECT_EQ(u.operands(u.id_of(acc, 3))[1].op, u.id_of(acc, 1));
}

TEST(Unroll, TopologicalOrderInvariant) {
  const UnrolledGraph u(axpy_kernel(7));
  for (OpId i = 0; i < u.size(); ++i) {
    for (const ConcreteOperand& o : u.operands(i)) {
      if (!o.is_imm()) {
        EXPECT_LT(o.op, i);
      }
    }
  }
}

// Memory dependences: load-after-store, store-after-store, store-after-load.
TEST(Unroll, MemoryDependencesTracked) {
  GraphBuilder b;
  auto x = b.load("buf", [](std::int64_t k) { return k; });       // RAW source
  b.store("buf", [](std::int64_t k) { return k + 1; }, x);        // writes next
  const LoopKernel k("chain", b.take(), 3);
  const UnrolledGraph u(k);
  // Iteration 1's load of buf[1] must depend on iteration 0's store to buf[1].
  const std::span<const OpId> load1 = u.mem_deps(u.id_of(0, 1));
  ASSERT_EQ(load1.size(), 1u);
  EXPECT_EQ(load1[0], u.id_of(1, 0));
  // Iteration 0's load of buf[0] has no prior store.
  EXPECT_TRUE(u.mem_deps(u.id_of(0, 0)).empty());
}

TEST(Unroll, WarDependenceOnStore) {
  GraphBuilder b;
  auto x = b.load("buf", [](std::int64_t) { return 0; });
  b.store("buf", [](std::int64_t) { return 0; }, x);
  const LoopKernel k("war", b.take(), 2);
  const UnrolledGraph u(k);
  // Iteration 0's store to buf[0] must wait for iteration 0's load (WAR).
  const std::span<const OpId> st0 = u.mem_deps(u.id_of(1, 0));
  ASSERT_EQ(st0.size(), 1u);
  EXPECT_EQ(st0[0], u.id_of(0, 0));
  // Iteration 1's store has WAW on store 0 and WAR on load 1.
  EXPECT_EQ(u.mem_deps(u.id_of(1, 1)).size(), 2u);
}

// ----------------------------------------------------------------- memory
TEST(Memory, BoundsAndNames) {
  Memory m;
  m.allocate("x", 4);
  EXPECT_TRUE(m.has("x"));
  EXPECT_FALSE(m.has("y"));
  EXPECT_THROW(m.read("y", 0), NotFoundError);
  EXPECT_THROW(m.read("x", 4), InvalidArgumentError);
  EXPECT_THROW(m.write("x", -1, 0), InvalidArgumentError);
  m.write("x", 2, 9);
  EXPECT_EQ(m.read("x", 2), 9);
  EXPECT_EQ(m.names(), std::vector<std::string>{"x"});
}

TEST(Memory, EqualityComparesContents) {
  Memory a, b;
  a.set("x", {1, 2});
  b.set("x", {1, 2});
  EXPECT_TRUE(a == b);
  b.write("x", 0, 5);
  EXPECT_FALSE(a == b);
}

// ----------------------------------------------------------------- interp
TEST(Interp, EvalOpSemantics) {
  using enum OpKind;
  const auto mode = DatapathMode::kExact;
  EXPECT_EQ(eval_op(kAdd, 3, 4, 0, mode), 7);
  EXPECT_EQ(eval_op(kSub, 3, 4, 0, mode), -1);
  EXPECT_EQ(eval_op(kMult, -3, 4, 0, mode), -12);
  EXPECT_EQ(eval_op(kAbs, -9, 0, 0, mode), 9);
  EXPECT_EQ(eval_op(kShift, 3, 0, 2, mode), 12);
  EXPECT_EQ(eval_op(kShift, -12, 0, -2, mode), -3);
  EXPECT_EQ(eval_op(kRoute, 5, 0, 0, mode), 5);
  EXPECT_EQ(eval_op(kConst, 0, 0, 77, mode), 77);
  EXPECT_THROW(eval_op(kLoad, 0, 0, 0, mode), InvalidArgumentError);
}

TEST(Interp, Wrap16Mode) {
  using enum OpKind;
  const auto mode = DatapathMode::kWrap16;
  EXPECT_EQ(eval_op(kAdd, 0x7fff, 1, 0, mode), -32768);  // 16-bit wraparound
  // Multiplier keeps the full 2n-bit product (paper Fig. 4: 2n-bit output).
  EXPECT_EQ(eval_op(kMult, 0x4000, 4, 0, mode), 0x10000);
}

TEST(Interp, ComputesAxpy) {
  const LoopKernel k = axpy_kernel(4);
  const UnrolledGraph u(k);
  Memory m;
  m.set("x", {1, 2, 3, 4});
  m.set("y", {10, 20, 30, 40});
  m.allocate("out", 4);
  const InterpResult r = interpret(u, m);
  EXPECT_EQ(m.array("out"), (std::vector<std::int64_t>{13, 26, 39, 52}));
  EXPECT_EQ(r.loads, 8);
  EXPECT_EQ(r.stores, 4);
}

TEST(Interp, AccumulatorSemantics) {
  GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k; });
  auto acc = b.accumulate(x, 0, 1);
  b.store("o", [](std::int64_t) { return 0; }, acc);
  const LoopKernel k("sum", b.take(), 4);
  Memory m;
  m.set("x", {1, 2, 3, 4});
  m.allocate("o", 1);
  interpret(UnrolledGraph(k), m);
  EXPECT_EQ(m.read("o", 0), 10);
}

}  // namespace
}  // namespace rsp::ir
