// Unrolling a LoopKernel into a flat table of concrete operations.
//
// Every (body node, iteration) pair becomes one op with concrete memory
// addresses and concrete dependence edges; loop-carried inputs resolve to
// the producing op of the earlier iteration (or to an immediate initial
// value on boundary iterations). Both the reference interpreter and the
// loop-pipelining mapper consume this representation, which guarantees that
// the schedule the mapper emits and the golden semantics agree on the
// dependence structure.
//
// The table is struct-of-arrays: one column per scalar field, array names
// interned once per graph, and the operand and memory-dependence lists in
// CSR form (one offset column plus one shared list each), so building it
// allocates per column, not per op.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/kernel.hpp"

namespace rsp::ir {

/// Index into an UnrolledGraph's op table: iter * body_size + body node.
using OpId = std::int64_t;
inline constexpr OpId kInvalidOp = -1;

/// Index into a table's interned array names; kNoArray for ops that name
/// no array.
using ArrayId = std::int32_t;
inline constexpr ArrayId kNoArray = -1;

/// One operand of a concrete op: either another op's value or an immediate.
struct ConcreteOperand {
  OpId op = kInvalidOp;       ///< producer, or kInvalidOp for an immediate
  std::int64_t imm = 0;       ///< used when op == kInvalidOp
  bool is_imm() const { return op == kInvalidOp; }
};

/// Flat, topologically ordered op table for the entire loop. Every
/// per-op accessor throws NotFoundError for an id outside [0, size()).
class UnrolledGraph {
 public:
  UnrolledGraph(const LoopKernel& kernel);

  std::int64_t size() const { return static_cast<std::int64_t>(kind_.size()); }
  std::int64_t trip_count() const { return trip_count_; }
  std::int32_t body_size() const { return body_size_; }

  /// Op id of (body node, iteration).
  OpId id_of(NodeId node, std::int64_t iter) const;

  OpKind kind(OpId id) const { return kind_[at(id)]; }
  /// Originating node in the kernel body.
  NodeId body_node(OpId id) const {
    return static_cast<NodeId>(static_cast<std::int64_t>(at(id)) % body_size_);
  }
  /// Iteration that spawned this instance.
  std::int64_t iter(OpId id) const {
    return static_cast<std::int64_t>(at(id)) / body_size_;
  }
  /// Const value / shift amount.
  std::int64_t imm(OpId id) const { return imm_[at(id)]; }
  /// Memory ops: the interned array; kNoArray otherwise.
  ArrayId array_id(OpId id) const { return array_[at(id)]; }
  /// Memory ops: the array name; "" otherwise.
  const std::string& array_name(OpId id) const;
  /// Memory ops: element index.
  std::int64_t address(OpId id) const { return address_[at(id)]; }
  std::span<const ConcreteOperand> operands(OpId id) const {
    const std::size_t i = at(id);
    return {operands_.data() + operand_start_[i],
            operands_.data() + operand_start_[i + 1]};
  }
  /// Memory-ordering predecessors (RAW/WAR/WAW on the same location).
  /// These carry no data — they only constrain scheduling order.
  std::span<const OpId> mem_deps(OpId id) const {
    const std::size_t i = at(id);
    return {mem_deps_.data() + mem_dep_start_[i],
            mem_deps_.data() + mem_dep_start_[i + 1]};
  }

  /// Distinct array names in order of first access; ArrayId indexes it.
  const std::vector<std::string>& array_names() const { return names_; }

 private:
  std::size_t at(OpId id) const {
    if (id < 0 || id >= size()) throw_out_of_range();
    return static_cast<std::size_t>(id);
  }
  [[noreturn]] static void throw_out_of_range();

  std::int64_t trip_count_ = 0;
  std::int32_t body_size_ = 0;
  std::vector<std::string> names_;
  std::vector<OpKind> kind_;
  std::vector<std::int64_t> imm_;
  std::vector<ArrayId> array_;
  std::vector<std::int64_t> address_;
  /// Op i's operands are operands_[operand_start_[i] .. operand_start_[i + 1]).
  std::vector<std::size_t> operand_start_;
  std::vector<ConcreteOperand> operands_;
  /// Op i's memory dependences, likewise.
  std::vector<std::size_t> mem_dep_start_;
  std::vector<OpId> mem_deps_;
};

}  // namespace rsp::ir
