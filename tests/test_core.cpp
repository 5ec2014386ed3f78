#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/estimate.hpp"
#include "core/evaluator.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "synth/paper_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsp::core {
namespace {

sched::PlacedProgram place(const kernels::Workload& w) {
  sched::LoopPipeliner mapper(w.array);
  return mapper.map(w.kernel, w.hints, w.reduction);
}

// ---------------------------------------------------------------- evaluator
TEST(Evaluator, EtIsCyclesTimesClock) {
  const RspEvaluator ev;
  const auto w = kernels::find_workload("ICCG");
  const sched::PlacedProgram p = place(w);
  const EvalResult base = ev.evaluate(p, arch::base_architecture());
  EXPECT_DOUBLE_EQ(base.execution_time_ns, base.cycles * 26.0);
  EXPECT_EQ(base.stalls, 0);
  EXPECT_EQ(base.delay_reduction_percent, 0.0);
}

TEST(Evaluator, DelayReductionAgainstBase) {
  const RspEvaluator ev;
  const auto w = kernels::find_workload("SAD");
  const sched::PlacedProgram p = place(w);
  const auto rows = ev.evaluate_suite(p, arch::standard_suite());
  ASSERT_EQ(rows.size(), 9u);
  // SAD: cycle counts identical everywhere (no mults), so DR equals the
  // clock ratio; RSP#1 must land on the paper's 35.7 % headline.
  for (const auto& r : rows) EXPECT_EQ(r.cycles, rows[0].cycles);
  EXPECT_NEAR(rows[5].delay_reduction_percent, 35.7, 0.2);
  EXPECT_NEAR(rows[8].delay_reduction_percent, 27.57, 0.2);
  // RS rows are slowdowns.
  for (int i = 1; i <= 4; ++i)
    EXPECT_LT(rows[static_cast<std::size_t>(i)].delay_reduction_percent, 0.0);
}

TEST(Evaluator, SuiteRequiresArchitectures) {
  const RspEvaluator ev;
  const auto w = kernels::find_workload("SAD");
  EXPECT_THROW(ev.evaluate_suite(place(w), {}), InvalidArgumentError);
}

TEST(Evaluator, RspNoStallCyclesDominateBase) {
  // RSP cycles = base + RP stretching, never less.
  const RspEvaluator ev;
  for (const auto& w : kernels::paper_suite()) {
    const sched::PlacedProgram p = place(w);
    const EvalResult base = ev.evaluate(p, arch::base_architecture());
    const EvalResult rsp2 = ev.evaluate(p, arch::rsp_architecture(2),
                                        base.execution_time_ns);
    EXPECT_GE(rsp2.cycles, base.cycles) << w.name;
  }
}

// ----------------------------------------------------------------- stalls
TEST(Evaluator, StallShapeMatchesPaper) {
  // The qualitative stall pattern of Tables 4/5:
  //   RS#1 stalls multiplier-hungry kernels; RS#3/RS#4 never stall;
  //   RSP#2 never stalls; SAD never stalls anywhere.
  const RspEvaluator ev;
  const std::vector<std::string> hungry = {"State", "2D-FDCT", "FFT"};
  for (const auto& name : hungry) {
    const auto w = kernels::find_workload(name);
    const sched::PlacedProgram p = place(w);
    EXPECT_GT(ev.evaluate(p, arch::rs_architecture(1)).stalls, 0) << name;
  }
  for (const auto& w : kernels::paper_suite()) {
    const sched::PlacedProgram p = place(w);
    EXPECT_EQ(ev.evaluate(p, arch::rs_architecture(3)).stalls, 0) << w.name;
    EXPECT_EQ(ev.evaluate(p, arch::rs_architecture(4)).stalls, 0) << w.name;
    EXPECT_EQ(ev.evaluate(p, arch::rsp_architecture(2)).stalls, 0) << w.name;
  }
  const auto sad = kernels::find_workload("SAD");
  const sched::PlacedProgram sp = place(sad);
  for (const auto& a : arch::standard_suite())
    EXPECT_EQ(ev.evaluate(sp, a).stalls, 0);
}

TEST(Evaluator, BestArchitectureIsRsp1OrRsp2) {
  // Paper §5.3: "the best performance for individual kernels can be
  // obtained with RSP#1 or RSP#2".
  const RspEvaluator ev;
  for (const auto& w : kernels::paper_suite()) {
    const sched::PlacedProgram p = place(w);
    const auto rows = ev.evaluate_suite(p, arch::standard_suite());
    std::size_t best = 0;
    for (std::size_t i = 1; i < rows.size(); ++i)
      if (rows[i].execution_time_ns < rows[best].execution_time_ns) best = i;
    EXPECT_TRUE(rows[best].arch_name == "RSP#1" ||
                rows[best].arch_name == "RSP#2")
        << w.name << " best on " << rows[best].arch_name;
  }
}

// --------------------------------------------------------------- estimate
TEST(Estimate, RequiresBaseContext) {
  const RspEvaluator ev;
  const auto w = kernels::find_workload("MVM");
  const sched::PlacedProgram p = place(w);
  const auto rs_ctx = ev.scheduler().schedule(p, arch::rs_architecture(1));
  EXPECT_THROW(estimate_performance(rs_ctx, arch::rs_architecture(2)),
               InvalidArgumentError);
}

TEST(Estimate, BaseTargetHasNoOverheads) {
  const RspEvaluator ev;
  const auto w = kernels::find_workload("MVM");
  const sched::PlacedProgram p = place(w);
  const auto base_ctx = ev.scheduler().schedule(p, arch::base_architecture());
  const PerfEstimate est =
      estimate_performance(base_ctx, arch::base_architecture());
  EXPECT_EQ(est.rs_stall_bound, 0);
  EXPECT_EQ(est.rp_overhead, 0);
  EXPECT_EQ(est.estimated_cycles(), base_ctx.length());
}

TEST(Estimate, IsOptimisticUpperBoundOnPerformance) {
  // Paper §4: the quick estimate never *overstates* the cost — estimated
  // cycles <= exactly rescheduled cycles for every kernel × architecture.
  const RspEvaluator ev;
  for (const auto& w : kernels::paper_suite()) {
    const sched::PlacedProgram p = place(w);
    const auto base_ctx =
        ev.scheduler().schedule(p, arch::base_architecture());
    for (const auto& a : arch::standard_suite()) {
      if (!a.shares_multiplier()) continue;
      const PerfEstimate est = estimate_performance(base_ctx, a);
      const int exact =
          ev.scheduler().schedule(p, a).length();
      EXPECT_LE(est.estimated_cycles(), exact)
          << w.name << " on " << a.name;
    }
  }
}

TEST(Estimate, LongestMultChainOnKnownKernels) {
  const RspEvaluator ev;
  // Hydro: r*z + t*z feed y*(...): chain of 2 dependent multiplications.
  const auto hydro = kernels::find_workload("Hydro");
  const auto ctx = ev.scheduler().schedule(place(hydro),
                                           arch::base_architecture());
  EXPECT_EQ(EstimateProfile(ctx).longest_mult_chain(), 2);
  // SAD has none.
  const auto sad = kernels::find_workload("SAD");
  EXPECT_EQ(EstimateProfile(ev.scheduler().schedule(place(sad),
                                                    arch::base_architecture()))
                .longest_mult_chain(),
            0);
}

TEST(Estimate, RsStallBoundGrowsWhenUnitsShrink) {
  const RspEvaluator ev;
  const auto w = kernels::find_workload("2D-FDCT");
  const auto base_ctx =
      ev.scheduler().schedule(place(w), arch::base_architecture());
  const PerfEstimate rs1 =
      estimate_performance(base_ctx, arch::rs_architecture(1));
  const PerfEstimate rs4 =
      estimate_performance(base_ctx, arch::rs_architecture(4));
  EXPECT_GE(rs1.rs_stall_bound, rs4.rs_stall_bound);
}


// ------------------------------------------------------ estimate reference
// The slot-level estimator that EstimateProfile replaced, kept verbatim as
// the reference: Kuhn's algorithm over individual unit slots, with the
// per-cycle sites and the longest chain rebuilt on every call.
namespace reference {

int longest_mult_chain(const sched::ConfigurationContext& context) {
  // DP over ops in index order (operands reference earlier indices).
  const auto& ops = context.ops();
  std::vector<int> depth(ops.size(), 0);
  int best = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    int in_depth = 0;
    for (const sched::ProgOperand& o : ops[i].operands) {
      if (o.is_imm()) continue;
      in_depth = std::max(in_depth, depth[static_cast<std::size_t>(o.producer)]);
    }
    depth[i] = in_depth + (ir::is_critical_op(ops[i].kind) ? 1 : 0);
    best = std::max(best, depth[i]);
  }
  return best;
}

/// Maximum number of multiplications in one cycle that can be served by the
/// row/column unit pools (bipartite matching, Kuhn's algorithm; each mult
/// at PE(r,c) may use a unit of row pool r or column pool c). Exact, so the
/// derived stall bound stays optimistic.
int max_served(const std::vector<arch::PeCoord>& mults,
               const arch::Architecture& target) {
  const int upr = target.sharing.units_per_row;
  const int upc = target.sharing.units_per_col;
  // Unit slots: row pools first, then column pools.
  const int row_slots = target.array.rows * upr;
  const int total_slots = row_slots + target.array.cols * upc;
  std::vector<int> slot_owner(static_cast<std::size_t>(total_slots), -1);

  auto candidate_slots = [&](const arch::PeCoord& pe) {
    std::vector<int> slots;
    for (int u = 0; u < upr; ++u) slots.push_back(pe.row * upr + u);
    for (int u = 0; u < upc; ++u)
      slots.push_back(row_slots + pe.col * upc + u);
    return slots;
  };

  std::vector<char> visited;
  // Augmenting path search from mult `m`.
  auto try_assign = [&](auto&& self, int m) -> bool {
    for (int slot : candidate_slots(mults[static_cast<std::size_t>(m)])) {
      if (visited[static_cast<std::size_t>(slot)]) continue;
      visited[static_cast<std::size_t>(slot)] = 1;
      if (slot_owner[static_cast<std::size_t>(slot)] < 0 ||
          self(self, slot_owner[static_cast<std::size_t>(slot)])) {
        slot_owner[static_cast<std::size_t>(slot)] = m;
        return true;
      }
    }
    return false;
  };

  int served = 0;
  for (int m = 0; m < static_cast<int>(mults.size()); ++m) {
    visited.assign(static_cast<std::size_t>(total_slots), 0);
    if (try_assign(try_assign, m)) ++served;
  }
  return served;
}

PerfEstimate estimate_performance(
    const sched::ConfigurationContext& base_context,
    const arch::Architecture& target) {
  if (base_context.architecture().shares_multiplier())
    throw InvalidArgumentError(
        "estimate_performance expects the base-architecture context");
  if (base_context.architecture().array != target.array)
    throw InvalidArgumentError("array geometries differ");

  PerfEstimate est;
  est.base_cycles = base_context.length();

  if (target.shares_multiplier()) {
    const int capacity = target.sharing.total_units(target.array);
    RSP_ASSERT(capacity > 0);

    // Per-cycle multiplication sites from the initial (base) context.
    std::vector<std::vector<arch::PeCoord>> mults_at(
        static_cast<std::size_t>(est.base_cycles));
    for (const sched::ScheduledOp& op : base_context.ops())
      if (ir::is_critical_op(op.kind))
        mults_at[static_cast<std::size_t>(op.cycle)].push_back(op.pe);

    // Backlog model: each cycle serves what the unit pools can reach
    // (exact matching); the surplus queues and may drain into later spare
    // capacity. Only the final backlog forces extra cycles. Dependences
    // and operand routing are ignored, so the bound never overestimates —
    // the paper's "upper bound of the performance".
    long backlog = 0;
    for (const auto& mults : mults_at) {
      const int demand = static_cast<int>(mults.size());
      const int served = demand == 0 ? 0 : max_served(mults, target);
      backlog += demand - served;
      if (demand < capacity)
        backlog = std::max<long>(0, backlog - (capacity - demand));
    }
    est.rs_stall_bound = static_cast<int>((backlog + capacity - 1) / capacity);
  }
  if (target.pipelines_multiplier()) {
    est.rp_overhead =
        (target.sharing.pipeline_stages - 1) * longest_mult_chain(base_context);
  }
  return est;
}

}  // namespace reference

void expect_same_estimate(const PerfEstimate& got, const PerfEstimate& want,
                          const std::string& what) {
  EXPECT_EQ(got.base_cycles, want.base_cycles) << what;
  EXPECT_EQ(got.rs_stall_bound, want.rs_stall_bound) << what;
  EXPECT_EQ(got.rp_overhead, want.rp_overhead) << what;
}

TEST(EstimateReference, ProfileMatchesSlotMatchingOverTheDefaultGrid) {
  // Every catalogue kernel and 40 generated ones, on every point of the
  // default exploration grid: the profile, the one-shot wrapper and the
  // reference agree field for field.
  std::vector<kernels::Workload> domain = kernels::full_catalogue();
  for (int seed = 1; seed <= 40; ++seed)
    domain.push_back(
        kernels::find_in_catalogue("gen:" + std::to_string(seed)));
  std::size_t pairs = 0;
  for (const kernels::Workload& w : domain) {
    const sched::ConfigurationContext base_ctx =
        dse::prepare_kernel(w).base_context;
    const EstimateProfile profile(base_ctx);
    EXPECT_EQ(profile.base_cycles(), base_ctx.length());
    const dse::Explorer explorer(w.array);
    const arch::Architecture base = explorer.base_architecture();
    for (const dse::DesignPoint& point : explorer.enumerate_points()) {
      const arch::Architecture target =
          explorer.point_architecture(point, base);
      const PerfEstimate want =
          reference::estimate_performance(base_ctx, target);
      expect_same_estimate(profile.estimate(target), want,
                           w.name + " on " + target.name);
      expect_same_estimate(estimate_performance(base_ctx, target), want,
                           w.name + " on " + target.name + " (one-shot)");
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 54u * 97u);
}

TEST(EstimateReference, RandomPoolMatchingsOnNonSquareArrays) {
  // Random sets of distinct PEs on 1..8 x 1..8 arrays against 0..4 units
  // per pool. Each set fills `repeats` consecutive cycles, so a served
  // count off by one in a saturated cycle moves the stall bound.
  util::Rng rng(0xE57);
  for (int trial = 0; trial < 400; ++trial) {
    const int rows = static_cast<int>(rng.uniform(1, 8));
    const int cols = static_cast<int>(rng.uniform(1, 8));
    const int upr = static_cast<int>(rng.uniform(0, 4));
    const int upc = static_cast<int>(rng.uniform(upr == 0 ? 1 : 0, 4));
    const arch::Architecture target = arch::custom_architecture(
        "target", rows, cols, upr, upc, static_cast<int>(rng.uniform(1, 4)));
    const int capacity = target.sharing.total_units(target.array);

    std::vector<sched::ScheduledOp> ops;
    int cycle = 0;
    for (int set = static_cast<int>(rng.uniform(1, 4)); set > 0; --set) {
      const std::int64_t density = rng.uniform(0, 100);
      std::vector<arch::PeCoord> pes;
      for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
          if (rng.uniform(1, 100) <= density) pes.push_back({r, c});
      const int repeats =
          static_cast<int>(rng.uniform(1, std::min(capacity, 16)));
      for (int k = 0; k < repeats; ++k, ++cycle) {
        for (const arch::PeCoord& pe : pes) {
          sched::ScheduledOp op;
          op.kind = ir::OpKind::kMult;
          op.pe = pe;
          op.cycle = cycle;
          ops.push_back(op);
        }
      }
    }
    const sched::ConfigurationContext base_ctx(
        arch::base_architecture(rows, cols), std::move(ops));
    expect_same_estimate(EstimateProfile(base_ctx).estimate(target),
                         reference::estimate_performance(base_ctx, target),
                         "trial " + std::to_string(trial) + ": " +
                             std::to_string(rows) + "x" +
                             std::to_string(cols) + ", " +
                             std::to_string(upr) + "r+" +
                             std::to_string(upc) + "c");
  }
}

TEST(EstimateReference, ProfileKeepsTheInputErrors) {
  const RspEvaluator ev;
  const sched::PlacedProgram p = place(kernels::find_workload("MVM"));
  EXPECT_THROW(
      EstimateProfile(ev.scheduler().schedule(p, arch::rs_architecture(1))),
      InvalidArgumentError);
  const EstimateProfile profile(
      ev.scheduler().schedule(p, arch::base_architecture()));
  EXPECT_THROW(profile.estimate(arch::rs_architecture(1, 4, 4)),
               InvalidArgumentError);
}

}  // namespace
}  // namespace rsp::core
