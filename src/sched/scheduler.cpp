#include "sched/scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace rsp::sched {

namespace {

/// Per-cycle occupancy counts of one resource kind: a flat cycle-major
/// array, grown on demand.
class OccupancyTable {
 public:
  explicit OccupancyTable(int slots_per_cycle)
      : slots_(static_cast<std::size_t>(slots_per_cycle)) {}

  int used(int cycle, int slot) const {
    const std::size_t i = index(cycle, slot);
    return i < cells_.size() ? cells_[i] : 0;
  }

  void take(int cycle, int slot) {
    const std::size_t i = index(cycle, slot);
    if (i >= cells_.size())
      cells_.resize(std::max(2 * cells_.size(),
                             (static_cast<std::size_t>(cycle) + 1) * slots_),
                    0);
    ++cells_[i];
  }

 private:
  std::size_t index(int cycle, int slot) const {
    return static_cast<std::size_t>(cycle) * slots_ +
           static_cast<std::size_t>(slot);
  }

  std::size_t slots_;
  std::vector<int> cells_;
};

}  // namespace

arch::Architecture unlimited_units(const arch::Architecture& a) {
  if (!a.shares_multiplier()) return a;
  arch::Architecture u = a;
  u.name = a.name + "-unlimited";
  // One unit per PE of each row is always enough: a row can issue at most
  // `cols` multiplications per cycle.
  u.sharing.units_per_row = a.array.cols;
  u.sharing.units_per_col = 0;
  u.validate();
  return u;
}

ConfigurationContext ContextScheduler::schedule(
    const PlacedProgram& program, const arch::Architecture& architecture)
    const {
  architecture.validate();
  program.validate();
  if (program.array() != architecture.array)
    throw InvalidArgumentError(
        "program was placed for a different array geometry");

  const arch::ArraySpec& array = architecture.array;
  const bool shared = architecture.shares_multiplier();
  const int mult_latency = architecture.mult_latency();

  // Scheduling order: by priority (stable on index for determinism).
  std::vector<ProgIndex> order(static_cast<std::size_t>(program.size()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](ProgIndex a, ProgIndex b) {
    return program.op(a).priority < program.op(b).priority;
  });

  // Occupancy: PEs, row read buses, row write buses, shared units.
  OccupancyTable pe_busy(array.num_pes());
  OccupancyTable read_bus(array.rows);
  OccupancyTable write_bus(array.rows);
  // Shared unit slot numbering: row pools first, then column pools. A
  // multiplication at PE(r,c) reaches slots r*upr .. r*upr+upr-1 of its row
  // pool, then row_units + c*upc .. of its column pool.
  const int upr = architecture.sharing.units_per_row;
  const int upc = architecture.sharing.units_per_col;
  const int row_units = array.rows * upr;
  const int col_units = array.cols * upc;
  OccupancyTable unit_busy(std::max(row_units + col_units, 1));

  std::vector<int> cycle_of(static_cast<std::size_t>(program.size()), -1);
  std::vector<ScheduledOp> scheduled(static_cast<std::size_t>(program.size()));

  for (ProgIndex idx : order) {
    const ProgramOp& op = program.op(idx);

    // Earliest cycle by dataflow and memory ordering.
    int ready = 0;
    for (const ProgOperand& o : op.operands) {
      if (o.is_imm()) continue;
      const int pc = cycle_of[static_cast<std::size_t>(o.producer)];
      RSP_ASSERT_MSG(pc >= 0, "producer scheduled after consumer");
      ready = std::max(
          ready, pc + scheduled[static_cast<std::size_t>(o.producer)].latency);
    }
    for (ProgIndex d : op.order_deps) {
      const int pc = cycle_of[static_cast<std::size_t>(d)];
      RSP_ASSERT_MSG(pc >= 0, "order dep scheduled after consumer");
      ready = std::max(ready,
                       pc + scheduled[static_cast<std::size_t>(d)].latency);
    }

    const bool is_mult = ir::is_critical_op(op.kind);
    const bool needs_unit = is_mult && shared;
    if (needs_unit && upr + upc == 0)
      throw InfeasibleError("architecture '" + architecture.name +
                            "' shares multipliers but PE(" +
                            std::to_string(op.pe.row) + "," +
                            std::to_string(op.pe.col) +
                            ") reaches no unit");

    const int pe_slot = array.linear(op.pe);
    // A multi-cycle (pipelined) operation keeps its issuing PE busy for all
    // stages: the PE waits for the product to return through the bus switch
    // (paper Fig. 6 — the 1*/2* stage pair occupies the PE's slots).
    const int occupancy = is_mult ? mult_latency : 1;
    int t = std::max(ready, op.not_before);
    std::optional<arch::SharedUnitId> unit;
    int unit_slot = -1;
    for (;; ++t) {
      if (t > options_.max_cycles)
        throw InternalError("schedule exceeds max_cycles — livelock?");
      bool pe_free = true;
      for (int s = 0; s < occupancy && pe_free; ++s)
        pe_free = pe_busy.used(t + s, pe_slot) == 0;
      if (!pe_free) continue;
      if (op.kind == ir::OpKind::kLoad &&
          read_bus.used(t, op.pe.row) >= array.read_buses_per_row)
        continue;
      if (op.kind == ir::OpKind::kStore &&
          write_bus.used(t, op.pe.row) >= array.write_buses_per_row)
        continue;
      if (needs_unit) {
        // First fit: row-pool units, then column-pool units, in index order.
        unit.reset();
        for (int u = 0; u < upr && !unit; ++u) {
          unit_slot = op.pe.row * upr + u;
          if (unit_busy.used(t, unit_slot) == 0)
            unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow,
                                      op.pe.row, u};
        }
        for (int u = 0; u < upc && !unit; ++u) {
          unit_slot = row_units + op.pe.col * upc + u;
          if (unit_busy.used(t, unit_slot) == 0)
            unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kColumn,
                                      op.pe.col, u};
        }
        if (!unit) continue;  // RS stall: bump to the next cycle
      }
      break;
    }

    // Commit.
    for (int s = 0; s < occupancy; ++s) pe_busy.take(t + s, pe_slot);
    if (op.kind == ir::OpKind::kLoad) read_bus.take(t, op.pe.row);
    if (op.kind == ir::OpKind::kStore) write_bus.take(t, op.pe.row);
    if (unit) unit_busy.take(t, unit_slot);
    cycle_of[static_cast<std::size_t>(idx)] = t;

    ScheduledOp& out = scheduled[static_cast<std::size_t>(idx)];
    out.kind = op.kind;
    out.pe = op.pe;
    out.cycle = t;
    out.latency = is_mult ? mult_latency : 1;
    out.priority = op.priority;
    out.iter = op.iter;
    out.source = op.source;
    out.operands = op.operands;
    out.order_deps = op.order_deps;
    out.imm = op.imm;
    out.array = op.array;
    out.address = op.address;
    out.unit = unit;
  }

  return ConfigurationContext(architecture, std::move(scheduled));
}

}  // namespace rsp::sched
