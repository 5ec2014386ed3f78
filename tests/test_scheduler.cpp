#include <gtest/gtest.h>

#include <set>

#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "sched/legality.hpp"
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
    const LegalityReport rep = check_legality(ctx);
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
    EXPECT_GE(ctx.op(i).cycle, p.op(i).not_before);
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
      measure(s, p, arch::custom_architecture("RSP-4u", 4, 4, 1, 0, 2));
  EXPECT_EQ(rsp.stalls, 0);
}

// ------------------------------------------------------------ perf points
TEST(Scheduler, MeasureDecomposesStalls) {
  const ContextScheduler s;
  const auto w = kernels::find_workload("State");
  const PlacedProgram p = place(w);
  const PerfPoint base = measure(s, p, base_for(w));
  EXPECT_EQ(base.stalls, 0);
  EXPECT_EQ(base.cycles, base.nostall_cycles);
  const PerfPoint rs1 = measure(s, p, arch::rs_architecture(1));
  EXPECT_EQ(rs1.cycles, rs1.nostall_cycles + rs1.stalls);
  EXPECT_GT(rs1.stalls, 0);  // State hammers RS#1 (paper: 15 stalls)
  const PerfPoint rs4 = measure(s, p, arch::rs_architecture(4));
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

TEST(Pretty, PerPeViewListsEveryPe) {
  const ContextScheduler s;
  const auto w = kernels::make_matmul(4);
  const ConfigurationContext ctx =
      s.schedule(place(w), arch::base_architecture(4, 4));
  PrettyOptions opt;
  opt.per_pe = true;
  const std::string grid = render_schedule(ctx, opt);
  EXPECT_NE(grid.find("(3,3)"), std::string::npos);
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

}  // namespace
}  // namespace rsp::sched
