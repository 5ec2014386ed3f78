#include "sched/program.hpp"

#include <algorithm>

#include "sched/scheduler.hpp"
#include "util/error.hpp"

namespace rsp::sched {

ProgIndex PlacedProgram::add(const ProgramOp& op) {
  const ProgIndex idx = size();
  if (!array_.contains(op.pe))
    throw InvalidArgumentError("placed op PE out of range");
  const int arity = ir::op_arity(op.kind);
  if (static_cast<int>(op.operands.size()) != arity)
    throw InvalidArgumentError(std::string("placed op of kind ") +
                               ir::op_name(op.kind) + " expects " +
                               std::to_string(arity) + " operands");
  for (const ProgOperand& o : op.operands) {
    if (o.is_imm()) continue;
    if (o.producer < 0 || o.producer >= idx)
      throw InvalidArgumentError(
          "placed op operands must reference earlier ops");
  }
  if (ir::is_memory_op(op.kind) && op.array.empty())
    throw InvalidArgumentError("memory op requires an array name");
  for (ProgIndex d : op.order_deps)
    if (d < 0 || d >= idx)
      throw InvalidArgumentError(
          "order dependences must reference earlier ops");
  return append(op, op.operands, op.order_deps);
}

ProgIndex PlacedProgram::append(const ProgramOp& op,
                                std::span<const ProgOperand> operands,
                                std::span<const ProgIndex> order_deps) {
  const ProgIndex idx = size();
  profile_.reset();
  kind_.push_back(op.kind);
  pe_.push_back(op.pe);
  priority_.push_back(op.priority);
  iter_.push_back(op.iter);
  source_.push_back(op.source);
  imm_.push_back(op.imm);
  array_id_.push_back(intern(op.array));
  address_.push_back(op.address);
  not_before_.push_back(op.not_before);
  operands_.insert(operands_.end(), operands.begin(), operands.end());
  operand_start_.push_back(operands_.size());
  deps_.insert(deps_.end(), order_deps.begin(), order_deps.end());
  dep_start_.push_back(deps_.size());
  return idx;
}

ir::ArrayId PlacedProgram::intern(const std::string& name) {
  if (name.empty()) return ir::kNoArray;
  const auto id = static_cast<ir::ArrayId>(
      std::find(names_.begin(), names_.end(), name) - names_.begin());
  if (id == static_cast<ir::ArrayId>(names_.size())) names_.push_back(name);
  return id;
}

void PlacedProgram::throw_out_of_range() {
  throw NotFoundError("program index out of range");
}

const std::string& PlacedProgram::array_name(ProgIndex i) const {
  static const std::string kNone;
  const ir::ArrayId a = array_id_[at(i)];
  return a == ir::kNoArray ? kNone : names_[static_cast<std::size_t>(a)];
}

void PlacedProgram::validate() const {
  for (ProgIndex i = 0; i < size(); ++i) {
    const arch::PeCoord pe = pe_[static_cast<std::size_t>(i)];
    const std::int64_t priority = priority_[static_cast<std::size_t>(i)];
    RSP_ASSERT(array_.contains(pe));
    for (const ProgOperand& o : operands(i)) {
      if (o.is_imm()) continue;
      RSP_ASSERT_MSG(o.producer >= 0 && o.producer < i,
                     "operands must reference earlier ops");
      const arch::PeCoord from = pe_[static_cast<std::size_t>(o.producer)];
      if (array_.route(from, pe) == arch::RouteKind::kNone)
        throw InvalidArgumentError(
            "producer→consumer edge is not routable in one hop between " +
            std::to_string(from.row) + "," + std::to_string(from.col) +
            " and " + std::to_string(pe.row) + "," + std::to_string(pe.col));
      if (priority_[static_cast<std::size_t>(o.producer)] >= priority)
        throw InvalidArgumentError(
            "priorities must strictly increase along dependence edges");
    }
    for (ProgIndex d : order_deps(i))
      if (priority_[static_cast<std::size_t>(d)] >= priority)
        throw InvalidArgumentError(
            "priorities must strictly increase along order dependences");
  }
}

std::int64_t PlacedProgram::count(ir::OpKind kind) const {
  return static_cast<std::int64_t>(std::count(kind_.begin(), kind_.end(), kind));
}

std::shared_ptr<const TimingProfile> PlacedProgram::timing_profile() const {
  return profile_ ? profile_ : std::make_shared<const TimingProfile>(*this);
}

}  // namespace rsp::sched
