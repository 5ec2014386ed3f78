// Fluent construction helpers for loop-body dataflow graphs.
//
//   GraphBuilder b;
//   auto y  = b.load("y", [](auto k) { return k; }, "y[k]");
//   auto z  = b.load("z", [](auto k) { return k + 10; }, "z[k+10]");
//   auto p  = b.mult(y, z);
//   b.store("x", [](auto k) { return k; }, p);
//   DataflowGraph g = b.take();
#pragma once

#include <utility>

#include "ir/graph.hpp"
#include "util/error.hpp"

namespace rsp::ir {

class GraphBuilder {
 public:
  NodeId constant(std::int64_t value, std::string label = {}) {
    Node n;
    n.kind = OpKind::kConst;
    n.imm = value;
    n.label = std::move(label);
    return graph_.add(std::move(n));
  }

  NodeId load(std::string array, IndexFn index, std::string label = {}) {
    Node n;
    n.kind = OpKind::kLoad;
    n.mem = MemRef{std::move(array), std::move(index)};
    n.label = std::move(label);
    return graph_.add(std::move(n));
  }

  NodeId store(std::string array, IndexFn index, NodeId value,
               std::string label = {}) {
    Node n;
    n.kind = OpKind::kStore;
    n.inputs = {value};
    n.mem = MemRef{std::move(array), std::move(index)};
    n.label = std::move(label);
    return graph_.add(std::move(n));
  }

  NodeId add(NodeId a, NodeId b, std::string label = {}) {
    return binary(OpKind::kAdd, a, b, std::move(label));
  }
  NodeId sub(NodeId a, NodeId b, std::string label = {}) {
    return binary(OpKind::kSub, a, b, std::move(label));
  }
  NodeId mult(NodeId a, NodeId b, std::string label = {}) {
    return binary(OpKind::kMult, a, b, std::move(label));
  }

  NodeId abs(NodeId a, std::string label = {}) {
    Node n;
    n.kind = OpKind::kAbs;
    n.inputs = {a};
    n.label = std::move(label);
    return graph_.add(std::move(n));
  }

  /// amount > 0 shifts left, amount < 0 shifts right (arithmetic).
  NodeId shift(NodeId a, int amount, std::string label = {}) {
    Node n;
    n.kind = OpKind::kShift;
    n.inputs = {a};
    n.imm = amount;
    n.label = std::move(label);
    return graph_.add(std::move(n));
  }

  /// Explicit idle slot in the linearised body (a configuration word that
  /// does nothing); used to shape the per-cycle resource profile.
  NodeId nop() {
    Node n;
    n.kind = OpKind::kNop;
    return graph_.add(std::move(n));
  }

  /// Accumulating add: result = operand + (own value from `distance`
  /// iterations ago, `init` on boundary iterations). Returns the accumulator
  /// node id.
  NodeId accumulate(NodeId operand, std::int64_t init = 0, int distance = 1,
                    std::string label = {}) {
    // Self-referential carried input: the producer is the accumulator
    // itself, whose id is known before insertion (nodes are appended).
    const NodeId self = graph_.size();
    Node n;
    n.kind = OpKind::kAdd;
    n.inputs = {operand, kInvalidNode};
    n.carried = {CarriedInput{self, distance, init}};
    n.label = std::move(label);
    const NodeId id = graph_.add(std::move(n));
    RSP_ASSERT(id == self);
    return id;
  }

  const DataflowGraph& graph() const { return graph_; }

  DataflowGraph take() {
    graph_.validate();
    return std::move(graph_);
  }

 private:
  NodeId binary(OpKind kind, NodeId a, NodeId b, std::string label) {
    Node n;
    n.kind = kind;
    n.inputs = {a, b};
    n.label = std::move(label);
    return graph_.add(std::move(n));
  }

  DataflowGraph graph_;
};

}  // namespace rsp::ir
