#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/dot.hpp"
#include "ir/graph.hpp"
#include "ir/kernel.hpp"
#include "util/error.hpp"

namespace rsp::ir {
namespace {

DataflowGraph simple_mac() {
  GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k; });
  auto y = b.load("y", [](std::int64_t k) { return k; });
  auto m = b.mult(x, y);
  b.store("z", [](std::int64_t k) { return k; }, m);
  return b.take();
}

// ------------------------------------------------------------------ arity
TEST(Graph, OpArityTable) {
  EXPECT_EQ(op_arity(OpKind::kConst), 0);
  EXPECT_EQ(op_arity(OpKind::kLoad), 0);
  EXPECT_EQ(op_arity(OpKind::kNop), 0);
  EXPECT_EQ(op_arity(OpKind::kStore), 1);
  EXPECT_EQ(op_arity(OpKind::kAbs), 1);
  EXPECT_EQ(op_arity(OpKind::kShift), 1);
  EXPECT_EQ(op_arity(OpKind::kRoute), 1);
  EXPECT_EQ(op_arity(OpKind::kAdd), 2);
  EXPECT_EQ(op_arity(OpKind::kSub), 2);
  EXPECT_EQ(op_arity(OpKind::kMult), 2);
}

TEST(Graph, Classification) {
  EXPECT_TRUE(is_critical_op(OpKind::kMult));
  EXPECT_FALSE(is_critical_op(OpKind::kAdd));
  EXPECT_TRUE(is_memory_op(OpKind::kLoad));
  EXPECT_TRUE(is_memory_op(OpKind::kStore));
  EXPECT_FALSE(produces_value(OpKind::kStore));
  EXPECT_TRUE(produces_value(OpKind::kMult));
}

TEST(Graph, RejectsWrongOperandCount) {
  DataflowGraph g;
  Node n;
  n.kind = OpKind::kAdd;
  n.inputs = {};  // add needs 2
  EXPECT_THROW(g.add(std::move(n)), InvalidArgumentError);
}

TEST(Graph, RejectsForwardReference) {
  DataflowGraph g;
  Node c;
  c.kind = OpKind::kConst;
  g.add(std::move(c));
  Node n;
  n.kind = OpKind::kAbs;
  n.inputs = {5};  // node 5 does not exist yet
  EXPECT_THROW(g.add(std::move(n)), InvalidArgumentError);
}

TEST(Graph, RejectsMemoryOpWithoutRef) {
  DataflowGraph g;
  Node n;
  n.kind = OpKind::kLoad;  // no MemRef attached
  EXPECT_THROW(g.add(std::move(n)), InvalidArgumentError);
}

TEST(Graph, RejectsNonMemoryOpWithRef) {
  DataflowGraph g;
  Node n;
  n.kind = OpKind::kConst;
  n.mem = MemRef{"x", [](std::int64_t) { return 0; }};
  EXPECT_THROW(g.add(std::move(n)), InvalidArgumentError);
}

TEST(Graph, RejectsCarriedWithoutOpenSlot) {
  DataflowGraph g;
  Node c;
  c.kind = OpKind::kConst;
  const NodeId cid = g.add(std::move(c));
  Node n;
  n.kind = OpKind::kAbs;
  n.inputs = {cid};
  n.carried = {CarriedInput{cid, 1, 0}};  // no kInvalidNode slot to fill
  EXPECT_THROW(g.add(std::move(n)), InvalidArgumentError);
}

TEST(Graph, RejectsNonPositiveCarriedDistance) {
  DataflowGraph g;
  Node c;
  c.kind = OpKind::kConst;
  const NodeId cid = g.add(std::move(c));
  Node n;
  n.kind = OpKind::kAdd;
  n.inputs = {cid, kInvalidNode};
  n.carried = {CarriedInput{cid, 0, 0}};
  EXPECT_THROW(g.add(std::move(n)), InvalidArgumentError);
}

// ------------------------------------------------------------- structure
TEST(Graph, CountsAndOpSet) {
  const DataflowGraph g = simple_mac();
  EXPECT_EQ(g.count(OpKind::kLoad), 2);
  EXPECT_EQ(g.count(OpKind::kMult), 1);
  const auto ops = g.op_set();
  ASSERT_EQ(ops.size(), 1u);  // loads/stores excluded, only mult remains
  EXPECT_EQ(ops[0], OpKind::kMult);
}

TEST(Graph, DeadValueNodesDetected) {
  GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k; });
  b.constant(42);  // dead: nobody consumes it
  b.store("y", [](std::int64_t k) { return k; }, x);
  const DataflowGraph g = b.take();
  const auto dead = g.dead_value_nodes();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(g.node(dead[0]).kind, OpKind::kConst);
}

TEST(Graph, AccumulatorBuilderWiresSelfReference) {
  GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k; });
  auto acc = b.accumulate(x, 7, 4);
  const DataflowGraph g = b.take();
  const Node& n = g.node(acc);
  ASSERT_EQ(n.carried.size(), 1u);
  EXPECT_EQ(n.carried[0].producer, acc);
  EXPECT_EQ(n.carried[0].distance, 4);
  EXPECT_EQ(n.carried[0].init, 7);
}

// ----------------------------------------------------------------- kernel
TEST(Kernel, ValidatesArguments) {
  EXPECT_THROW(ir::LoopKernel("x", DataflowGraph(), 4), InvalidArgumentError);
  EXPECT_THROW(ir::LoopKernel("x", simple_mac(), 0), InvalidArgumentError);
  EXPECT_THROW(ir::LoopKernel("", simple_mac(), 4), InvalidArgumentError);
}

TEST(Kernel, SummaryAccessors) {
  const ir::LoopKernel k("mac", simple_mac(), 10);
  EXPECT_EQ(k.mults_per_iteration(), 1);
  EXPECT_EQ(k.total_ops(), 40);
  EXPECT_EQ(k.op_set_string(), "mult");
}

// -------------------------------------------------------------------- dot
TEST(Dot, EmitsNodesAndEdges) {
  const ir::LoopKernel k("mac", simple_mac(), 4);
  const std::string dot = to_dot(k);
  EXPECT_NE(dot.find("digraph \"mac\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("lightcoral"), std::string::npos);  // mult highlighted
}

TEST(Dot, CarriedEdgesDashes) {
  GraphBuilder b;
  auto x = b.load("x", [](std::int64_t k) { return k; });
  b.accumulate(x, 0, 8);
  const std::string dot = to_dot(b.take(), "acc");
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("d=8"), std::string::npos);
}

}  // namespace
}  // namespace rsp::ir
