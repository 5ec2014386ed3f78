#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <typeinfo>

#include "analysis/verifier.hpp"
#include "core/evaluator.hpp"
#include "dse/explorer.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/pretty.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"

namespace rsp::sched {
namespace {

PlacedProgram place(const kernels::Workload& w) {
  LoopPipeliner mapper(w.array);
  return mapper.map(w.kernel, w.hints, w.reduction);
}

arch::Architecture base_for(const kernels::Workload& w) {
  return arch::base_architecture(w.array.rows, w.array.cols);
}

// ------------------------------------------------------------- base rules
TEST(Scheduler, BaseScheduleIsLegalForEveryKernel) {
  const ContextScheduler s;
  for (const auto& w : kernels::paper_suite()) {
    const ConfigurationContext ctx = s.schedule(place(w), base_for(w));
    const analysis::LegalityReport rep = analysis::check_legality(ctx);
    EXPECT_TRUE(rep.ok) << w.name << ": "
                        << (rep.violations.empty() ? ""
                                                   : rep.violations.front());
  }
}

TEST(Scheduler, DeterministicAcrossRuns) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("FFT");
  const PlacedProgram p = place(w);
  const ConfigurationContext a = s.schedule(p, arch::rsp_architecture(1));
  const ConfigurationContext b = s.schedule(p, arch::rsp_architecture(1));
  ASSERT_EQ(a.size(), b.size());
  for (ProgIndex i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.op(i).cycle, b.op(i).cycle);
    EXPECT_EQ(a.op(i).unit.has_value(), b.op(i).unit.has_value());
    if (a.op(i).unit) {
      EXPECT_EQ(*a.op(i).unit, *b.op(i).unit);
    }
  }
}

TEST(Scheduler, NotBeforeRespected) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("ICCG");
  const PlacedProgram p = place(w);
  const ConfigurationContext ctx = s.schedule(p, base_for(w));
  for (ProgIndex i = 0; i < p.size(); ++i)
    EXPECT_GE(ctx.op(i).cycle, p.not_before(i));
}

TEST(Scheduler, RejectsGeometryMismatch) {
  const ContextScheduler s;
  const auto w = kernels::make_matmul(4);  // 4×4 program
  EXPECT_THROW(s.schedule(place(w), arch::base_architecture(8, 8)),
               InvalidArgumentError);
}

// ------------------------------------------------------- sharing semantics
TEST(Scheduler, SharedMultsCarryUnits) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("MVM");
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::rs_architecture(2));
  int mults = 0;
  for (const ScheduledOp& op : ctx.ops()) {
    if (ir::is_critical_op(op.kind)) {
      ++mults;
      ASSERT_TRUE(op.unit.has_value());
      // Unit reachable: row pool of the op's own row.
      EXPECT_EQ(op.unit->pool, arch::SharedUnitId::Pool::kRow);
      EXPECT_EQ(op.unit->line, op.pe.row);
    } else {
      EXPECT_FALSE(op.unit.has_value());
    }
  }
  EXPECT_EQ(mults, 64);
}

TEST(Scheduler, BaseMultsCarryNoUnit) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("MVM");
  const ConfigurationContext ctx = s.schedule(place(w), base_for(w));
  for (const ScheduledOp& op : ctx.ops()) EXPECT_FALSE(op.unit.has_value());
}

TEST(Scheduler, RsWithEnoughUnitsMatchesBaseCycles) {
  // RS rescheduling with unlimited units must not change the schedule
  // length (same latencies, sharing constraint not binding).
  const ContextScheduler s;
  for (const auto& w : kernels::paper_suite()) {
    const PlacedProgram p = place(w);
    const int base_len = s.schedule(p, base_for(w)).length();
    const arch::Architecture unlimited =
        unlimited_units(arch::rs_architecture(1, w.array.rows, w.array.cols));
    EXPECT_EQ(s.schedule(p, unlimited).length(), base_len) << w.name;
  }
}

TEST(Scheduler, StallsNonNegativeAndMonotoneInSharing) {
  // Fewer shared units can never shorten the schedule: RS#1 >= RS#2 >= RS#3
  // >= RS#4 in cycles (pools only grow from #1 to #4).
  const ContextScheduler s;
  for (const auto& w : kernels::paper_suite()) {
    const PlacedProgram p = place(w);
    int prev = std::numeric_limits<int>::max();
    for (int v = 1; v <= 4; ++v) {
      const int len =
          s.schedule(p, arch::rs_architecture(v, w.array.rows, w.array.cols))
              .length();
      EXPECT_LE(len, prev) << w.name << " RS#" << v;
      prev = len;
    }
  }
}

TEST(Scheduler, UnitNeverDoubleIssued) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("2D-FDCT");
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::rsp_architecture(1));
  std::set<std::pair<std::string, int>> issues;
  for (const ScheduledOp& op : ctx.ops()) {
    if (!op.unit) continue;
    EXPECT_TRUE(
        issues.emplace(arch::to_string(*op.unit), op.cycle).second);
  }
}

TEST(Scheduler, UnitChoiceIsFirstFitRowPoolFirst) {
  // A multiplication takes the lowest-indexed free unit of its row pool,
  // and a column-pool unit only when its whole row pool is busy. Occupancy
  // only grows, so both still hold in the finished schedule.
  const ContextScheduler s;
  using Pool = arch::SharedUnitId::Pool;
  for (const char* name : {"2D-FDCT", "MVM", "FFT"}) {
    const auto w = kernels::find_workload(name);
    const ConfigurationContext ctx = s.schedule(
        place(w), arch::custom_architecture("2r+2c", w.array.rows,
                                            w.array.cols, 2, 2, 2));
    std::set<std::pair<arch::SharedUnitId, int>> busy;
    for (const ScheduledOp& op : ctx.ops())
      if (op.unit) busy.emplace(*op.unit, op.cycle);
    const auto is_busy = [&](Pool pool, int line, int index, int cycle) {
      return busy.count({arch::SharedUnitId{pool, line, index}, cycle}) > 0;
    };
    for (const ScheduledOp& op : ctx.ops()) {
      if (!op.unit) continue;
      const arch::SharedUnitId& u = *op.unit;
      for (int i = 0; i < u.index; ++i)
        EXPECT_TRUE(is_busy(u.pool, u.line, i, op.cycle))
            << name << ": " << arch::to_string(u) << " at " << op.cycle;
      if (u.pool == Pool::kColumn) {
        for (int i = 0; i < 2; ++i)
          EXPECT_TRUE(is_busy(Pool::kRow, op.pe.row, i, op.cycle))
              << name << ": " << arch::to_string(u) << " at " << op.cycle;
      }
    }
  }
}

// ---------------------------------------------------- pipelining semantics
TEST(Scheduler, RspLatencyAppliedToMults) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("FFT");
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::rsp_architecture(2));
  for (const ScheduledOp& op : ctx.ops())
    EXPECT_EQ(op.latency, ir::is_critical_op(op.kind) ? 2 : 1);
}

TEST(Scheduler, DeeperPipeliningNeverShortensSchedule) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("Hydro");
  const PlacedProgram p = place(w);
  int prev = 0;
  for (int stages = 2; stages <= 4; ++stages) {
    const int len =
        s.schedule(p, arch::rsp_architecture(2, 8, 8, stages)).length();
    EXPECT_GE(len, prev);
    prev = len;
  }
}

TEST(Scheduler, PipeliningReducesPeakUnitDemand) {
  // The Fig. 2 → Fig. 6 claim: the same matmul needs 8 concurrent
  // multipliers un-pipelined but only 4 once the multiplier is 2-stage
  // pipelined (the PE occupies both stages, staggering the bursts).
  const ContextScheduler s;
  const auto w = kernels::make_matmul(4);
  const PlacedProgram p = place(w);

  const arch::Architecture base = arch::base_architecture(4, 4);
  const int base_peak =
      s.schedule(p, base).max_critical_issues_per_cycle();
  EXPECT_EQ(base_peak, 8);

  // Pipelining halves the peak issue demand even with unlimited units: the
  // PE occupies both multiplication stages, so the column bursts stagger.
  const arch::Architecture rsp_unlimited = unlimited_units(
      arch::custom_architecture("RSP-unl", 4, 4, 1, 0, 2));
  const int rsp_peak =
      s.schedule(p, rsp_unlimited).max_critical_issues_per_cycle();
  EXPECT_LE(rsp_peak, 4);

  // Hence 4 pipelined multipliers (1 per row) suffice without any stall.
  const PerfPoint rsp =
      core::measure_perf(s, TimingProfile(p),
                         arch::custom_architecture("RSP-4u", 4, 4, 1, 0, 2))
          .perf;
  EXPECT_EQ(rsp.stalls, 0);
}

// ------------------------------------------------------------ perf points
TEST(Scheduler, MeasureDecomposesStalls) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("State");
  const TimingProfile p(place(w));
  const PerfPoint base = core::measure_perf(s, p, base_for(w)).perf;
  EXPECT_EQ(base.stalls, 0);
  EXPECT_EQ(base.cycles, base.nostall_cycles);
  const PerfPoint rs1 = core::measure_perf(s, p, arch::rs_architecture(1)).perf;
  EXPECT_EQ(rs1.cycles, rs1.nostall_cycles + rs1.stalls);
  EXPECT_GT(rs1.stalls, 0);  // State hammers RS#1 (paper: 15 stalls)
  const PerfPoint rs4 = core::measure_perf(s, p, arch::rs_architecture(4)).perf;
  EXPECT_EQ(rs4.stalls, 0);
}

// ------------------------------------------------------------------ stats
TEST(Stats, HistogramSumsToTotalMults) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("Hydro");
  const ConfigurationContext ctx = s.schedule(place(w), base_for(w));
  const ScheduleStats st = stats_of(ctx);
  long total = 0;
  for (int c : st.mult_histogram) total += c;
  EXPECT_EQ(total, st.total_mults);
  EXPECT_EQ(st.total_mults, 32 * 3);  // 3 mults × 32 iterations
  EXPECT_EQ(st.max_mults_per_cycle, 6);  // the Table 3 value
}

// ----------------------------------------------------------------- pretty
TEST(Pretty, RendersStagesForPipelinedMults) {
  const ContextScheduler s;
  const auto w = kernels::make_matmul(4);
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::custom_architecture("RSP", 4, 4, 2, 0, 2));
  const std::string grid = render_schedule(ctx);
  EXPECT_NE(grid.find("1*"), std::string::npos);
  EXPECT_NE(grid.find("2*"), std::string::npos);
  EXPECT_NE(grid.find("Ld"), std::string::npos);
  const std::string base_grid =
      render_schedule(s.schedule(place(w), arch::base_architecture(4, 4)));
  EXPECT_EQ(base_grid.find("1*"), std::string::npos);
  EXPECT_NE(base_grid.find("*"), std::string::npos);
}

// Every grid of tests/data/schedule_grids_golden.txt, each under a
// "== <kernel> on <architecture> ==" line: one kernel per architecture
// class (2D-FDCT on RSP#1 runs 90 cycles, so its grid ends in the
// truncation line).
std::string golden_grids() {
  const ContextScheduler s;
  std::ostringstream doc;
  const auto add = [&](const kernels::Workload& w,
                       const arch::Architecture& a) {
    doc << "== " << w.name << " on " << a.name << " ==\n"
        << render_schedule(s.schedule(place(w), a));
  };
  add(kernels::find_workload("2D-FDCT"), arch::rsp_architecture(1));
  add(kernels::find_workload("SAD"), arch::rsp_architecture(4));
  add(kernels::find_workload("Hydro"), arch::base_architecture());
  add(kernels::find_workload("FFT"), arch::rs_architecture(2));
  add(kernels::make_matmul(4), arch::custom_architecture("RSP", 4, 4, 2, 0, 2));
  return doc.str();
}

TEST(Pretty, GridsMatchCheckedInGolden) {
  std::ifstream in(RSP_TEST_DATA_DIR "/schedule_grids_golden.txt",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing tests/data/schedule_grids_golden.txt";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(golden_grids(), expected.str())
      << "schedule grids drifted from the checked-in golden file";
}

// ---------------------------------------------------------------- encode
TEST(Encode, ConfigCacheReflectsSchedule) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("ICCG");
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::rs_architecture(1));
  const arch::ConfigCache cache = ctx.encode();
  EXPECT_EQ(cache.context_length(), std::max(ctx.length(), 1));
  // Every scheduled op occupies exactly one non-idle word.
  int words = 0;
  for (int t = 0; t < cache.context_length(); ++t)
    for (int r = 0; r < 8; ++r)
      for (int c = 0; c < 8; ++c)
        if (cache.word({r, c}, t).opcode != 0) ++words;
  EXPECT_EQ(words, ctx.size());
}

// ------------------------------------------------------ scheduler reference
// ContextScheduler::schedule and core::measure_perf as they were before the
// scheduling pass was split from materialisation, kept verbatim as the
// reference: every reschedule builds a full context, and the stall-free
// run is measured on a context too.
namespace reference {

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

// Op `i` of `program` as a ProgramOp value, for the reference pass.
ProgramOp op_at(const PlacedProgram& program, ProgIndex i) {
  ProgramOp op;
  op.kind = program.kind(i);
  op.pe = program.pe(i);
  op.priority = program.priority(i);
  op.iter = program.iter(i);
  op.source = program.source(i);
  op.operands.assign(program.operands(i).begin(), program.operands(i).end());
  op.imm = program.imm(i);
  op.array = program.array_name(i);
  op.address = program.address(i);
  op.order_deps.assign(program.order_deps(i).begin(),
                       program.order_deps(i).end());
  op.not_before = program.not_before(i);
  return op;
}

ConfigurationContext schedule(const PlacedProgram& program,
                              const arch::Architecture& architecture) {
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
    return program.priority(a) < program.priority(b);
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
    const ProgramOp op = op_at(program, idx);

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
      if (t > kMaxIssueCycle)
        throw InternalError("schedule exceeds kMaxIssueCycle — livelock?");
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

PerfPoint measure(const PlacedProgram& program,
                  const arch::Architecture& architecture,
                  const ConfigurationContext& real) {
  PerfPoint p;
  p.cycles = real.length();
  if (!architecture.shares_multiplier()) {
    p.nostall_cycles = p.cycles;
    p.stalls = 0;
    return p;
  }
  const ConfigurationContext free_run =
      schedule(program, unlimited_units(architecture));
  p.nostall_cycles = free_run.length();
  p.stalls = p.cycles - p.nostall_cycles;
  return p;
}

core::MeasuredPerf measure_perf(const PlacedProgram& program,
                                const arch::Architecture& architecture) {
  // One schedule serves both the PerfPoint and the issue-width column.
  const ConfigurationContext context = schedule(program, architecture);
  core::MeasuredPerf m;
  m.perf = measure(program, architecture, context);
  m.max_critical_issues = context.max_critical_issues_per_cycle();
  return m;
}

}  // namespace reference

bool same_operands(const std::vector<ProgOperand>& a,
                   const std::vector<ProgOperand>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ProgOperand& x, const ProgOperand& y) {
                      return x.producer == y.producer && x.imm == y.imm;
                    });
}

bool same_op(const ScheduledOp& a, const ScheduledOp& b) {
  return a.kind == b.kind && a.pe == b.pe && a.cycle == b.cycle &&
         a.latency == b.latency && a.priority == b.priority &&
         a.iter == b.iter && a.source == b.source &&
         same_operands(a.operands, b.operands) &&
         a.order_deps == b.order_deps && a.imm == b.imm &&
         a.array == b.array && a.address == b.address && a.unit == b.unit;
}

/// schedule() agrees with the reference op for op.
void expect_schedule_matches_reference(const PlacedProgram& program,
                                       const arch::Architecture& architecture,
                                       const std::string& what) {
  const ConfigurationContext got =
      ContextScheduler().schedule(program, architecture);
  const ConfigurationContext want =
      reference::schedule(program, architecture);
  EXPECT_EQ(got.architecture().name, want.architecture().name) << what;
  EXPECT_EQ(got.length(), want.length()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (ProgIndex i = 0; i < got.size(); ++i)
    if (!same_op(got.op(i), want.op(i))) {
      ADD_FAILURE() << what << ": op " << i << " differs (cycle "
                    << got.op(i).cycle << " vs " << want.op(i).cycle << ")";
      break;
    }
}

/// One (mapped program, architecture) pair: schedule(), which times on the
/// program's stored profile, agrees with the reference op for op, and
/// core::measure_perf agrees with the reference measurement field for
/// field, both on a fresh profile of `program` and on the stored one,
/// which every pair of `program` shares (so its stall-free memo is hit by
/// every later pair of the same stage count).
void expect_matches_reference(const PlacedProgram& program,
                              const arch::Architecture& architecture,
                              const std::string& what) {
  expect_schedule_matches_reference(program, architecture, what);

  const ContextScheduler scheduler;
  const core::MeasuredPerf reference_perf =
      reference::measure_perf(program, architecture);
  const TimingProfile fresh(program);
  const std::shared_ptr<const TimingProfile> stored = program.timing_profile();
  for (const TimingProfile* profile : {&fresh, stored.get()}) {
    const core::MeasuredPerf perf =
        core::measure_perf(scheduler, *profile, architecture);
    EXPECT_EQ(perf.perf.cycles, reference_perf.perf.cycles) << what;
    EXPECT_EQ(perf.perf.stalls, reference_perf.perf.stalls) << what;
    EXPECT_EQ(perf.perf.nostall_cycles, reference_perf.perf.nostall_cycles)
        << what;
    EXPECT_EQ(perf.max_critical_issues, reference_perf.max_critical_issues)
        << what;
  }
}

TEST(Scheduler, AppendingToAMappedProgramDropsItsProfile) {
  const arch::Architecture base = arch::base_architecture();
  const PlacedProgram hydro = place(kernels::find_workload("Hydro"));
  const std::shared_ptr<const TimingProfile> profile = hydro.timing_profile();
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(hydro.timing_profile(), profile);

  // A copy shares the mapped program's profile.
  PlacedProgram copy = hydro;
  EXPECT_EQ(copy.timing_profile(), profile);

  // Appending drops the copy's profile, not the original's; the copy's
  // profiles are then built fresh, one per call.
  ProgramOp extra;
  extra.kind = ir::OpKind::kConst;
  extra.priority = std::numeric_limits<std::int64_t>::max();
  copy.add(extra);
  EXPECT_EQ(hydro.timing_profile(), profile);
  EXPECT_NE(copy.timing_profile(), profile);
  EXPECT_NE(copy.timing_profile(), copy.timing_profile());
  EXPECT_EQ(copy.timing_profile()->size(), profile->size() + 1);

  const ConfigurationContext context = ContextScheduler().schedule(copy, base);
  ASSERT_EQ(context.size(), hydro.size() + 1);
  EXPECT_EQ(context.op(hydro.size()).kind, ir::OpKind::kConst);
  expect_schedule_matches_reference(copy, base, "Hydro plus a const");
}

TEST(SchedulerReference, CatalogueMatchesOnTheNineDesigns) {
  std::size_t pairs = 0;
  for (const kernels::Workload& w : kernels::full_catalogue()) {
    const PlacedProgram p = place(w);
    for (const arch::Architecture& a :
         arch::standard_suite(w.array.rows, w.array.cols)) {
      expect_matches_reference(p, a, w.name + " on " + a.name);
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 14u * 9u);
}

TEST(SchedulerReference, PaperDomainMatchesOnTheDefaultGrid) {
  std::size_t pairs = 0;
  for (const kernels::Workload& w : kernels::paper_suite()) {
    const PlacedProgram p = place(w);
    const dse::Explorer explorer(w.array);
    const arch::Architecture base = explorer.base_architecture();
    const std::vector<dse::DesignPoint> points = explorer.enumerate_points();
    EXPECT_EQ(points.size(), 97u);
    // In enumeration order: the first sharing point of each stage count
    // fills the stored profile's memo, and its other 23 points hit it.
    for (const dse::DesignPoint& point : points) {
      const arch::Architecture a = explorer.point_architecture(point, base);
      expect_matches_reference(p, a, w.name + " on " + a.name);
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 9u * 97u);
}

TEST(SchedulerReference, GeneratedKernelsMatchOnTheNineDesigns) {
  for (int seed = 1; seed <= 40; ++seed) {
    const kernels::Workload w =
        kernels::find_in_catalogue("gen:" + std::to_string(seed));
    const PlacedProgram p = place(w);
    for (const arch::Architecture& a :
         arch::standard_suite(w.array.rows, w.array.cols))
      expect_matches_reference(p, a, w.name + " on " + a.name);
  }
}

/// The dynamic type and message of what `f` throws.
std::string thrown_by(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return "nothing thrown";
}

/// timing(), schedule() and the reference throw the same error of type E.
template <typename E>
void expect_same_error(const PlacedProgram& program,
                       const arch::Architecture& architecture) {
  const ContextScheduler scheduler;
  EXPECT_THROW(scheduler.timing(TimingProfile(program), architecture), E);
  const std::string want =
      thrown_by([&] { reference::schedule(program, architecture); });
  EXPECT_EQ(thrown_by([&] {
              scheduler.timing(TimingProfile(program), architecture);
            }),
            want);
  EXPECT_EQ(thrown_by([&] { scheduler.schedule(program, architecture); }),
            want);
}

/// On `warm`, a profile of `program` whose stall-free memo is filled,
/// core::measure_perf throws what the reference measurement throws, an
/// error of type E.
template <typename E>
void expect_same_measure_error(const TimingProfile& warm,
                               const PlacedProgram& program,
                               const arch::Architecture& architecture) {
  const ContextScheduler scheduler;
  EXPECT_THROW(core::measure_perf(scheduler, warm, architecture), E);
  const std::string want =
      thrown_by([&] { reference::measure_perf(program, architecture); });
  EXPECT_EQ(
      thrown_by([&] { core::measure_perf(scheduler, warm, architecture); }),
      want);
}

TEST(SchedulerReference, TimingAndScheduleThrowTheSameErrors) {
  const PlacedProgram matmul = place(kernels::make_matmul(4));
  expect_same_error<InvalidArgumentError>(matmul,
                                          arch::base_architecture(8, 8));

  // Sharing with pools that add up to no unit needs a negative count
  // (shares() is true only when some pool is non-empty), so
  // Architecture::validate rejects it ahead of the pass's "reaches no
  // unit" InfeasibleError, alike on every entry.
  arch::Architecture no_unit = arch::rs_architecture(1, 4, 4);
  no_unit.sharing.units_per_col = -1;
  expect_same_error<InvalidArgumentError>(matmul, no_unit);

  // Hydro plus a multiplication that may not issue before cycle
  // kMaxIssueCycle + 1: the pass aborts at the bound rather than issue it.
  PlacedProgram late = place(kernels::find_workload("Hydro"));
  ProgramOp late_mult;
  late_mult.kind = ir::OpKind::kMult;
  late_mult.operands = {ProgOperand{kNoProducer, 3},
                        ProgOperand{kNoProducer, 5}};
  late_mult.not_before = kMaxIssueCycle + 1;
  late.add(late_mult);
  expect_same_error<InternalError>(late, arch::rs_architecture(1));
  expect_same_error<InternalError>(late, arch::base_architecture());

  // A profile whose memo was filled: every target check still runs on a
  // memo hit.
  const TimingProfile warm_matmul(matmul);
  core::measure_perf(ContextScheduler(), warm_matmul,
                     arch::rs_architecture(1, 4, 4));
  expect_same_measure_error<InvalidArgumentError>(warm_matmul, matmul,
                                                  no_unit);
  expect_same_measure_error<InvalidArgumentError>(warm_matmul, matmul,
                                                  arch::rs_architecture(1));
}

}  // namespace
}  // namespace rsp::sched
