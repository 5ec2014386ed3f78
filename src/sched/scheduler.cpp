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

constexpr const char* kMaxCyclesExceeded =
    "schedule exceeds kMaxIssueCycle — livelock?";

// The target checks every entry of the pass runs.
void check_target(const TimingProfile& profile,
                  const arch::Architecture& architecture) {
  architecture.validate();
  if (profile.array() != architecture.array)
    throw InvalidArgumentError(
        "program was placed for a different array geometry");
}

}  // namespace

TimingProfile::StallFreeMemo::StallFreeMemo() {
  for (std::atomic<int>& slot : slots) slot.store(kUnset);
}

TimingProfile::TimingProfile(const PlacedProgram& program)
    : array_(program.array()) {
  program.validate();
  const std::vector<std::int64_t>& priority = program.priority_;
  const std::size_t n = priority.size();

  // Scheduling order: by priority (stable on index for determinism).
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(),
                   [&priority](ProgIndex a, ProgIndex b) {
                     return priority[static_cast<std::size_t>(a)] <
                            priority[static_cast<std::size_t>(b)];
                   });

  ops_.reserve(n);
  pred_start_.reserve(n + 1);
  pred_start_.push_back(0);
  preds_.reserve(program.operands_.size() + program.deps_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const ir::OpKind op_kind = program.kind_[i];
    Kind kind = Kind::kOther;
    if (ir::is_critical_op(op_kind))
      kind = Kind::kCritical;
    else if (op_kind == ir::OpKind::kLoad)
      kind = Kind::kLoad;
    else if (op_kind == ir::OpKind::kStore)
      kind = Kind::kStore;
    const arch::PeCoord pe = program.pe_[i];
    ops_.push_back(Op{kind, array_.linear(pe), pe.row, pe.col,
                      program.not_before_[i]});
    for (std::size_t k = program.operand_start_[i];
         k < program.operand_start_[i + 1]; ++k)
      if (!program.operands_[k].is_imm())
        preds_.push_back(program.operands_[k].producer);
    preds_.insert(preds_.end(),
                  program.deps_.begin() +
                      static_cast<std::ptrdiff_t>(program.dep_start_[i]),
                  program.deps_.begin() +
                      static_cast<std::ptrdiff_t>(program.dep_start_[i + 1]));
    pred_start_.push_back(preds_.size());
  }
}

int TimingProfile::max_critical_issues(const ScheduleTiming& timing) const {
  RSP_ASSERT(timing.cycles.size() == ops_.size());
  std::vector<int> issues(static_cast<std::size_t>(timing.length), 0);
  int peak = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i)
    if (ops_[i].kind == Kind::kCritical)
      peak = std::max(peak,
                      ++issues[static_cast<std::size_t>(timing.cycles[i])]);
  return peak;
}

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

ScheduleTiming ContextScheduler::timing(
    const TimingProfile& profile, const arch::Architecture& architecture)
    const {
  check_target(profile, architecture);

  const arch::ArraySpec& array = architecture.array;
  const bool shared = architecture.shares_multiplier();
  const int mult_latency = architecture.mult_latency();
  const std::size_t n = profile.size();

  // Occupancy: PEs, row read buses, row write buses, shared units.
  OccupancyTable pe_busy(array.num_pes());
  OccupancyTable read_bus(array.rows);
  OccupancyTable write_bus(array.rows);
  // Shared unit slots are numbered as ScheduleTiming::unit_slots documents.
  const int upr = architecture.sharing.units_per_row;
  const int upc = architecture.sharing.units_per_col;
  const int row_units = array.rows * upr;
  const int col_units = array.cols * upc;
  OccupancyTable unit_busy(std::max(row_units + col_units, 1));

  ScheduleTiming out;
  out.cycles.assign(n, -1);
  out.unit_slots.assign(n, -1);
  // Cycle from which each op's result is consumable; -1 until scheduled.
  std::vector<int> ready_at(n, -1);

  for (const ProgIndex order_idx : profile.order_) {
    const auto idx = static_cast<std::size_t>(order_idx);
    const TimingProfile::Op& op = profile.ops_[idx];

    // Earliest cycle by dataflow and memory ordering.
    int ready = 0;
    for (std::size_t k = profile.pred_start_[idx];
         k < profile.pred_start_[idx + 1]; ++k) {
      const int r = ready_at[static_cast<std::size_t>(profile.preds_[k])];
      RSP_ASSERT_MSG(r >= 0, "producer scheduled after consumer");
      ready = std::max(ready, r);
    }

    const bool is_mult = op.kind == TimingProfile::Kind::kCritical;
    const bool needs_unit = is_mult && shared;
    if (needs_unit && upr + upc == 0)
      throw InfeasibleError("architecture '" + architecture.name +
                            "' shares multipliers but PE(" +
                            std::to_string(op.row) + "," +
                            std::to_string(op.col) + ") reaches no unit");

    // A multi-cycle (pipelined) operation keeps its issuing PE busy for all
    // stages: the PE waits for the product to return through the bus switch
    // (paper Fig. 6 — the 1*/2* stage pair occupies the PE's slots).
    const int latency = is_mult ? mult_latency : 1;
    const int row_pool = op.row * upr;
    const int col_pool = row_units + op.col * upc;
    int t = std::max(ready, op.not_before);
    int unit_slot = -1;
    for (;; ++t) {
      if (t > kMaxIssueCycle) throw InternalError(kMaxCyclesExceeded);
      bool pe_free = true;
      for (int s = 0; s < latency && pe_free; ++s)
        pe_free = pe_busy.used(t + s, op.pe_slot) == 0;
      if (!pe_free) continue;
      if (op.kind == TimingProfile::Kind::kLoad &&
          read_bus.used(t, op.row) >= array.read_buses_per_row)
        continue;
      if (op.kind == TimingProfile::Kind::kStore &&
          write_bus.used(t, op.row) >= array.write_buses_per_row)
        continue;
      if (needs_unit) {
        // First fit: row-pool units, then column-pool units, in index order.
        for (int u = 0; u < upr && unit_slot < 0; ++u)
          if (unit_busy.used(t, row_pool + u) == 0) unit_slot = row_pool + u;
        for (int u = 0; u < upc && unit_slot < 0; ++u)
          if (unit_busy.used(t, col_pool + u) == 0) unit_slot = col_pool + u;
        if (unit_slot < 0) continue;  // RS stall: bump to the next cycle
      }
      break;
    }

    // Commit.
    for (int s = 0; s < latency; ++s) pe_busy.take(t + s, op.pe_slot);
    if (op.kind == TimingProfile::Kind::kLoad) read_bus.take(t, op.row);
    if (op.kind == TimingProfile::Kind::kStore) write_bus.take(t, op.row);
    if (unit_slot >= 0) unit_busy.take(t, unit_slot);
    out.cycles[idx] = t;
    out.unit_slots[idx] = unit_slot;
    ready_at[idx] = t + latency;
    out.length = std::max(out.length, t + latency);
  }
  return out;
}

int ContextScheduler::stall_free_length(
    const TimingProfile& profile, const arch::Architecture& architecture)
    const {
  if (!architecture.shares_multiplier())
    return timing(profile, architecture).length;
  // unlimited_units keeps everything validate() checks but the unit
  // counts, which it sets valid, so checking the target suffices.
  check_target(profile, architecture);
  std::atomic<int>& slot = profile.stall_free_.slots[static_cast<std::size_t>(
      architecture.mult_latency() - 1)];
  const int memo = slot.load();
  if (memo != TimingProfile::StallFreeMemo::kUnset) return memo;
  const int length = timing(profile, unlimited_units(architecture)).length;
  slot.store(length);
  return length;
}

ConfigurationContext ContextScheduler::schedule(
    const PlacedProgram& program, const arch::Architecture& architecture)
    const {
  // An invalid target's error takes precedence over an invalid program's.
  architecture.validate();
  return build_context(program, timing(*program.timing_profile(), architecture),
                       architecture);
}

ConfigurationContext ContextScheduler::build_context(
    const PlacedProgram& program, const ScheduleTiming& timing,
    const arch::Architecture& architecture) {
  const int mult_latency = architecture.mult_latency();
  const int upr = architecture.sharing.units_per_row;
  const int upc = architecture.sharing.units_per_col;
  const int row_units = architecture.array.rows * upr;

  std::vector<ScheduledOp> scheduled(static_cast<std::size_t>(program.size()));
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    const auto idx = static_cast<ProgIndex>(i);
    ScheduledOp& out = scheduled[i];
    out.kind = program.kind(idx);
    out.pe = program.pe(idx);
    out.cycle = timing.cycles[i];
    out.latency = ir::is_critical_op(out.kind) ? mult_latency : 1;
    out.priority = program.priority(idx);
    out.iter = program.iter(idx);
    out.source = program.source(idx);
    const std::span<const ProgOperand> operands = program.operands(idx);
    out.operands.assign(operands.begin(), operands.end());
    const std::span<const ProgIndex> deps = program.order_deps(idx);
    out.order_deps.assign(deps.begin(), deps.end());
    out.imm = program.imm(idx);
    out.array = program.array_name(idx);
    out.address = program.address(idx);
    const int slot = timing.unit_slots[i];
    if (slot >= row_units)
      out.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kColumn,
                                    (slot - row_units) / upc,
                                    (slot - row_units) % upc};
    else if (slot >= 0)
      out.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow,
                                    slot / upr, slot % upr};
  }
  return ConfigurationContext(architecture, std::move(scheduled));
}

}  // namespace rsp::sched
