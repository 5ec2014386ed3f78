// Unrolling a LoopKernel into a flat graph of concrete operations.
//
// Every (body node, iteration) pair becomes one `ConcreteOp` with concrete
// memory addresses and concrete dependence edges; loop-carried inputs resolve
// to the producing op of the earlier iteration (or to an immediate initial
// value on boundary iterations). Both the reference interpreter and the
// loop-pipelining mapper consume this representation, which guarantees that
// the schedule the mapper emits and the golden semantics agree on the
// dependence structure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/kernel.hpp"

namespace rsp::ir {

/// Index into UnrolledGraph::ops.
using OpId = std::int64_t;
inline constexpr OpId kInvalidOp = -1;

/// One operand of a concrete op: either another op's value or an immediate.
struct ConcreteOperand {
  OpId op = kInvalidOp;       ///< producer, or kInvalidOp for an immediate
  std::int64_t imm = 0;       ///< used when op == kInvalidOp
  bool is_imm() const { return op == kInvalidOp; }
};

/// A fully concrete operation instance.
struct ConcreteOp {
  OpKind kind = OpKind::kNop;
  NodeId body_node = kInvalidNode;  ///< originating node in the kernel body
  std::int64_t iter = 0;            ///< iteration that spawned this instance
  std::vector<ConcreteOperand> operands;
  std::int64_t imm = 0;             ///< const value / shift amount
  std::string array;                ///< memory ops: array name
  std::int64_t address = 0;         ///< memory ops: element index
  /// Memory-ordering predecessors (RAW/WAR/WAW on the same location).
  /// These carry no data — they only constrain scheduling order.
  std::vector<OpId> mem_deps;
};

/// Flat, topologically ordered operation list for the entire loop.
class UnrolledGraph {
 public:
  UnrolledGraph(const LoopKernel& kernel);

  const std::vector<ConcreteOp>& ops() const { return ops_; }
  const ConcreteOp& op(OpId id) const;
  std::int64_t size() const { return static_cast<std::int64_t>(ops_.size()); }

  std::int64_t trip_count() const { return trip_count_; }
  std::int32_t body_size() const { return body_size_; }

  /// Op id of (body node, iteration).
  OpId id_of(NodeId node, std::int64_t iter) const;

 private:
  std::vector<ConcreteOp> ops_;
  std::int64_t trip_count_ = 0;
  std::int32_t body_size_ = 0;
};

}  // namespace rsp::ir
