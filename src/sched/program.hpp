// Placed program: the output of the loop-pipelining mapper and the input of
// the context scheduler.
//
// A `PlacedProgram` fixes *where* every operation runs (its PE) and in which
// *order* operations compete for resources (the priority, which encodes the
// paper's "in the order of loop iteration" rule), but not *when* — cycles
// are assigned by the `ContextScheduler` for a concrete architecture. The
// same placed program scheduled on Base / RS#k / RSP#k yields the paper's
// base context and its RS/RSP rearrangements.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/array.hpp"
#include "ir/unroll.hpp"

namespace rsp::sched {

class TimingProfile;

/// Index into a PlacedProgram's op table.
using ProgIndex = std::int64_t;
inline constexpr ProgIndex kNoProducer = -1;

/// Operand of a placed op: a producer inside the program or an immediate.
struct ProgOperand {
  ProgIndex producer = kNoProducer;
  std::int64_t imm = 0;
  bool is_imm() const { return producer == kNoProducer; }
};

/// One placed operation, as PlacedProgram::add takes it. The program
/// stores its fields in columns, not as ProgramOp values.
struct ProgramOp {
  ir::OpKind kind = ir::OpKind::kNop;
  arch::PeCoord pe;
  /// Resource-competition order; strictly increasing along every dependence
  /// chain. Lower priority = earlier loop iteration = wins contended units.
  std::int64_t priority = 0;
  /// Originating iteration; -1 for mapper-inserted epilogue (reduction) ops.
  std::int64_t iter = -1;
  /// Originating op in the unrolled graph; ir::kInvalidOp for epilogue ops.
  ir::OpId source = ir::kInvalidOp;
  std::vector<ProgOperand> operands;
  std::int64_t imm = 0;      ///< const value / shift amount
  std::string array;         ///< memory ops
  std::int64_t address = 0;  ///< memory ops
  /// Ordering-only predecessors (memory RAW/WAR/WAW). They carry no value
  /// and need no route — the dependence flows through data memory.
  std::vector<ProgIndex> order_deps;
  /// Earliest issue cycle. The mapper pins every loop op to its nominal
  /// lockstep slot (wave start + body slot) so the configuration context
  /// follows the Fig. 2 staggered-wave discipline; the scheduler may only
  /// move ops *later* (stalls), never earlier.
  int not_before = 0;
};

/// The full placed computation for one kernel on one array geometry: an op
/// table with one column per ProgramOp field, interned array names and the
/// operand and order-dependence lists in CSR form. A mapped program keeps
/// the unrolled graph's numbering: body op i is program op i (its source),
/// and the reduction epilogue follows. Every per-op accessor throws
/// NotFoundError for an index outside [0, size()).
///
/// A mapped program carries its TimingProfile, built once by
/// LoopPipeliner::map and shared by copies; `add` drops it.
class PlacedProgram {
 public:
  explicit PlacedProgram(arch::ArraySpec array) : array_(array) {
    array_.validate();
  }

  const arch::ArraySpec& array() const { return array_; }

  /// Appends an op; operands must reference earlier ops. Returns its index.
  /// Drops the program's timing profile.
  ProgIndex add(const ProgramOp& op);

  std::int64_t size() const { return static_cast<std::int64_t>(kind_.size()); }

  ir::OpKind kind(ProgIndex i) const { return kind_[at(i)]; }
  arch::PeCoord pe(ProgIndex i) const { return pe_[at(i)]; }
  std::int64_t priority(ProgIndex i) const { return priority_[at(i)]; }
  std::int64_t iter(ProgIndex i) const { return iter_[at(i)]; }
  ir::OpId source(ProgIndex i) const { return source_[at(i)]; }
  std::int64_t imm(ProgIndex i) const { return imm_[at(i)]; }
  ir::ArrayId array_id(ProgIndex i) const { return array_id_[at(i)]; }
  /// The op's array name; "" when it names none.
  const std::string& array_name(ProgIndex i) const;
  std::int64_t address(ProgIndex i) const { return address_[at(i)]; }
  int not_before(ProgIndex i) const { return not_before_[at(i)]; }
  std::span<const ProgOperand> operands(ProgIndex i) const {
    const std::size_t k = at(i);
    return {operands_.data() + operand_start_[k],
            operands_.data() + operand_start_[k + 1]};
  }
  std::span<const ProgIndex> order_deps(ProgIndex i) const {
    const std::size_t k = at(i);
    return {deps_.data() + dep_start_[k], deps_.data() + dep_start_[k + 1]};
  }

  /// Distinct array names in order of first use; ir::ArrayId indexes it.
  const std::vector<std::string>& array_names() const { return names_; }

  /// Structural checks: operand ordering, PE bounds, single-hop routability
  /// of every producer→consumer edge, priorities monotone along edges.
  void validate() const;

  /// Number of ops of `kind` (for quick sanity checks).
  std::int64_t count(ir::OpKind kind) const;

  /// The profile LoopPipeliner::map stored, or, for a program built or
  /// extended by `add`, a fresh one (which throws what validate throws).
  std::shared_ptr<const TimingProfile> timing_profile() const;

 private:
  friend class LoopPipeliner;  // fills the columns directly
  friend class TimingProfile;  // reads them directly

  std::size_t at(ProgIndex i) const {
    if (i < 0 || i >= size()) throw_out_of_range();
    return static_cast<std::size_t>(i);
  }
  [[noreturn]] static void throw_out_of_range();
  ir::ArrayId intern(const std::string& name);
  /// Appends `op` with `operands` and `order_deps` in place of its own
  /// lists, unchecked.
  ProgIndex append(const ProgramOp& op, std::span<const ProgOperand> operands,
                   std::span<const ProgIndex> order_deps);

  arch::ArraySpec array_;
  std::shared_ptr<const TimingProfile> profile_;
  std::vector<std::string> names_;
  std::vector<ir::OpKind> kind_;
  std::vector<arch::PeCoord> pe_;
  std::vector<std::int64_t> priority_;
  std::vector<std::int64_t> iter_;
  std::vector<ir::OpId> source_;
  std::vector<std::int64_t> imm_;
  std::vector<ir::ArrayId> array_id_;
  std::vector<std::int64_t> address_;
  std::vector<int> not_before_;
  /// Op i's operands are operands_[operand_start_[i] .. operand_start_[i + 1]).
  std::vector<std::size_t> operand_start_{0};
  std::vector<ProgOperand> operands_;
  /// Op i's order dependences, likewise.
  std::vector<std::size_t> dep_start_{0};
  std::vector<ProgIndex> deps_;
};

}  // namespace rsp::sched
