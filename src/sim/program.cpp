#include "sim/program.hpp"

#include <algorithm>
#include <map>

#include "analysis/verifier.hpp"
#include "util/error.hpp"

namespace rsp::sim {

SimProgram SimProgram::compile(const sched::ConfigurationContext& context) {
  // Both check passes live in the static analysis layer (the engine behind
  // `rsp_cli lint`): per-op validation first (InvalidArgumentError), then
  // the structural replay in issue order (Error). A
  // context that compiles is exactly a context the linter reports no
  // errors on, message for message.
  analysis::verify_context(context);
  analysis::verify_structural(context);

  const arch::Architecture& a = context.architecture();
  const arch::ArraySpec& array = a.array;
  const auto& ops = context.ops();
  const std::size_t n = ops.size();
  const int total_cycles = context.length();

  SimProgram p;
  p.total_cycles_ = total_cycles;

  // ------------------------------------------------- struct-of-arrays ops
  p.kind_.reserve(n);
  p.producer_a_.reserve(n);
  p.producer_b_.reserve(n);
  p.imm_a_.reserve(n);
  p.imm_b_.reserve(n);
  p.imm_.reserve(n);
  p.array_id_.reserve(n);
  p.address_.reserve(n);

  std::map<std::string, std::int32_t> interned;
  const auto slot = [](const std::vector<sched::ProgOperand>& operands,
                       std::size_t index, std::int32_t& producer,
                       std::int64_t& imm) {
    if (index < operands.size() && !operands[index].is_imm()) {
      producer = static_cast<std::int32_t>(operands[index].producer);
      imm = 0;
    } else {
      // Absent operand reads 0; an immediate reads its literal.
      producer = -1;
      imm = index < operands.size() ? operands[index].imm : 0;
    }
  };

  for (const sched::ScheduledOp& op : ops) {
    p.kind_.push_back(op.kind);
    p.imm_.push_back(op.imm);
    std::int32_t pa = -1, pb = -1;
    std::int64_t ia = 0, ib = 0;
    slot(op.operands, 0, pa, ia);
    slot(op.operands, 1, pb, ib);
    p.producer_a_.push_back(pa);
    p.producer_b_.push_back(pb);
    p.imm_a_.push_back(ia);
    p.imm_b_.push_back(ib);
    if (ir::is_memory_op(op.kind)) {
      const auto [it, fresh] = interned.emplace(
          op.array, static_cast<std::int32_t>(p.array_names_.size()));
      if (fresh) p.array_names_.push_back(op.array);
      p.array_id_.push_back(it->second);
      p.address_.push_back(op.address);
    } else {
      p.array_id_.push_back(-1);
      p.address_.push_back(0);
    }
  }

  // ------------------------------------------------------- activity list
  // Issue order: ascending cycle, then ascending op index within a cycle.
  std::vector<std::vector<std::int64_t>> by_cycle(
      static_cast<std::size_t>(std::max(total_cycles, 1)));
  for (std::size_t i = 0; i < n; ++i)
    by_cycle[static_cast<std::size_t>(ops[i].cycle)].push_back(
        static_cast<std::int64_t>(i));

  p.issue_order_.reserve(n);
  for (int t = 0; t < total_cycles; ++t) {
    const auto& issues = by_cycle[static_cast<std::size_t>(t)];
    if (issues.empty()) continue;
    ++p.active_cycle_count_;
    p.issue_order_.insert(p.issue_order_.end(), issues.begin(), issues.end());
  }

  // --------------------------------------------- schedule-static stats
  // The structural replay already proved the schedule legal, so every
  // counter the replay used to accumulate is a pure function of the op
  // list: one flat pass, no occupancy tables.
  UtilizationStats& st = p.stats_;
  st.cycles = total_cycles;
  st.pe_issue_slots =
      static_cast<std::int64_t>(total_cycles) * array.num_pes();
  st.shared_unit_slots = static_cast<std::int64_t>(total_cycles) *
                         a.sharing.total_units(array);
  for (const sched::ScheduledOp& op : ops) {
    ++st.pe_issues;
    switch (op.kind) {
      case ir::OpKind::kLoad:
        ++st.bus_reads;
        break;
      case ir::OpKind::kStore:
        ++st.bus_writes;
        break;
      default:
        if (ir::is_critical_op(op.kind)) {
          ++st.mult_ops;
          if (a.shares_multiplier()) ++st.shared_unit_issues;
        }
        break;
    }
  }
  return p;
}

SimResult SimProgram::run(ir::Memory& memory, ir::DatapathMode mode) const {
  SimResult result;
  result.stats = stats_;
  result.values.assign(kind_.size(), 0);

  const auto operand = [&result](std::int32_t producer,
                                 std::int64_t imm) -> std::int64_t {
    // A producer issuing later in the schedule still holds its initial 0
    // here (the silent read RSP-W001 flags).
    return producer >= 0 ? result.values[static_cast<std::size_t>(producer)]
                         : imm;
  };

  for (std::int64_t s = 0;
       s < static_cast<std::int64_t>(issue_order_.size()); ++s) {
    const auto i = static_cast<std::size_t>(issue_order_[s]);
    std::int64_t value = 0;
    switch (kind_[i]) {
      case ir::OpKind::kLoad:
        value = memory.read(array_names_[static_cast<std::size_t>(
                                array_id_[i])],
                            address_[i]);
        break;
      case ir::OpKind::kStore:
        memory.write(
            array_names_[static_cast<std::size_t>(array_id_[i])],
            address_[i], operand(producer_a_[i], imm_a_[i]));
        break;
      case ir::OpKind::kNop:
        break;
      default:
        value = ir::eval_op(kind_[i], operand(producer_a_[i], imm_a_[i]),
                            operand(producer_b_[i], imm_b_[i]), imm_[i],
                            mode);
        break;
    }
    result.values[i] = value;
  }
  return result;
}

}  // namespace rsp::sim
