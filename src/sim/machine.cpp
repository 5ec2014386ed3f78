#include "sim/machine.hpp"

#include <algorithm>
#include <map>

#include "analysis/verifier.hpp"
#include "sim/program.hpp"
#include "util/error.hpp"

namespace rsp::sim {

const char* engine_name(SimEngine engine) {
  return engine == SimEngine::kDense ? "dense" : "event";
}

SimEngine parse_sim_engine(const std::string& name) {
  if (name == "dense") return SimEngine::kDense;
  if (name == "event") return SimEngine::kEvent;
  throw InvalidArgumentError("unknown simulation engine '" + name +
                             "' (expected 'dense' or 'event')");
}

SimResult Machine::run(const sched::ConfigurationContext& context,
                       ir::Memory& memory) const {
  if (engine_ == SimEngine::kEvent)
    return SimProgram::compile(context).run(memory, mode_);
  analysis::verify_context(context);
  return run_dense(context, memory);
}

SimResult Machine::run_dense(const sched::ConfigurationContext& context,
                             ir::Memory& memory) const {
  const arch::Architecture& a = context.architecture();
  const arch::ArraySpec& array = a.array;
  const auto& ops = context.ops();

  // Bucket op indices by issue cycle.
  const int total_cycles = context.length();
  std::vector<std::vector<sched::ProgIndex>> by_cycle(
      static_cast<std::size_t>(std::max(total_cycles, 1)));
  for (sched::ProgIndex i = 0; i < context.size(); ++i)
    by_cycle[static_cast<std::size_t>(ops[static_cast<std::size_t>(i)].cycle)]
        .push_back(i);

  SimResult result;
  result.values.assign(ops.size(), 0);
  std::vector<int> ready_at(ops.size(), 0);  // cycle the value becomes usable

  UtilizationStats& st = result.stats;
  st.cycles = total_cycles;
  st.pe_issue_slots =
      static_cast<std::int64_t>(total_cycles) * array.num_pes();
  st.shared_unit_slots = static_cast<std::int64_t>(total_cycles) *
                         a.sharing.total_units(array);

  // A PE blocks for every stage of a multi-cycle multiplication.
  std::vector<int> pe_busy_until(static_cast<std::size_t>(array.num_pes()), 0);

  for (int t = 0; t < total_cycles; ++t) {
    // Per-cycle structural occupancy.
    std::map<int, int> row_reads, row_writes;
    std::map<std::string, sched::ProgIndex> unit_taken;

    for (sched::ProgIndex i : by_cycle[static_cast<std::size_t>(t)]) {
      const sched::ScheduledOp& op = ops[static_cast<std::size_t>(i)];

      // PE exclusivity (with multi-stage occupancy).
      const int pe = array.linear(op.pe);
      if (pe_busy_until[static_cast<std::size_t>(pe)] > t)
        throw Error("simulator: PE double-booked at cycle " +
                    std::to_string(t));
      pe_busy_until[static_cast<std::size_t>(pe)] =
          t + (ir::is_critical_op(op.kind) ? op.latency : 1);

      // Operand collection (values must be ready).
      auto value_of = [&](const sched::ProgOperand& o) -> std::int64_t {
        if (o.is_imm()) return o.imm;
        if (ready_at[static_cast<std::size_t>(o.producer)] > t)
          throw Error("simulator: operand consumed before ready at cycle " +
                      std::to_string(t));
        return result.values[static_cast<std::size_t>(o.producer)];
      };

      std::int64_t value = 0;
      switch (op.kind) {
        case ir::OpKind::kLoad:
          if (++row_reads[op.pe.row] > array.read_buses_per_row)
            throw Error("simulator: read-bus oversubscribed on row " +
                        std::to_string(op.pe.row) + " at cycle " +
                        std::to_string(t));
          value = memory.read(op.array, op.address);
          ++st.bus_reads;
          break;
        case ir::OpKind::kStore:
          if (++row_writes[op.pe.row] > array.write_buses_per_row)
            throw Error("simulator: write-bus oversubscribed on row " +
                        std::to_string(op.pe.row) + " at cycle " +
                        std::to_string(t));
          memory.write(op.array, op.address, value_of(op.operands[0]));
          ++st.bus_writes;
          break;
        case ir::OpKind::kNop:
          break;
        default: {
          if (ir::is_critical_op(op.kind)) {
            ++st.mult_ops;
            if (a.shares_multiplier()) {
              if (!op.unit)
                throw Error("simulator: shared multiply without a unit");
              const std::string key = arch::to_string(*op.unit);
              if (!unit_taken.emplace(key, i).second)
                throw Error("simulator: unit " + key +
                            " double-issued at cycle " + std::to_string(t));
              ++st.shared_unit_issues;
            }
          }
          const std::int64_t lhs =
              op.operands.empty() ? 0 : value_of(op.operands[0]);
          const std::int64_t rhs =
              op.operands.size() > 1 ? value_of(op.operands[1]) : 0;
          value = ir::eval_op(op.kind, lhs, rhs, op.imm, mode_);
          break;
        }
      }
      result.values[static_cast<std::size_t>(i)] = value;
      ready_at[static_cast<std::size_t>(i)] = t + op.latency;
      ++st.pe_issues;
    }
  }
  return result;
}

}  // namespace rsp::sim
