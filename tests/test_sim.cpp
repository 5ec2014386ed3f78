// Integration: mapper → scheduler → cycle simulator, checked against the
// independent golden model for every kernel on every one of the paper's
// nine architectures (81 combinations + matmul variants). The same matrix,
// the refusal cases, the VCD golden file and a randomized property test
// compare the simulator (sim::Machine, which compiles to sim::SimProgram)
// with `reference::run_dense` below — the dense per-cycle loop that was
// the simulator's second engine, kept here as an independent oracle. They
// require equal SimResults (values and stats), final memories and VCD
// bytes, and the same exception type and message on every refusal.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <typeinfo>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "ir/interp.hpp"
#include "kernels/matmul.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsp {
namespace {

arch::Architecture arch_by_name(const std::string& name, int rows, int cols) {
  if (name == "Base") return arch::base_architecture(rows, cols);
  const int variant = name.back() - '0';
  if (name.find("RSP") == 0) return arch::rsp_architecture(variant, rows, cols);
  return arch::rs_architecture(variant, rows, cols);
}

// ------------------------------------------------------------- reference
//
// The dense per-cycle loop, verbatim from its time as `Machine::run_dense`
// apart from taking the datapath mode as a parameter, plus the
// `analysis::verify_context` entry check Machine::run made before calling
// it. It visits every cycle of the context and re-derives every
// structural check inline from its own occupancy tables, so it shares no
// code with the compiled engine's legality replay
// (analysis::verify_structural) or its issue-order walk.
namespace reference {

sim::SimResult run_dense(const sched::ConfigurationContext& context,
                         ir::Memory& memory, ir::DatapathMode mode) {
  analysis::verify_context(context);
  using sim::SimResult;
  using sim::UtilizationStats;

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
          if (++row_reads[op.pe.row] > arch::kReadBusesPerRow)
            throw Error("simulator: read-bus oversubscribed on row " +
                        std::to_string(op.pe.row) + " at cycle " +
                        std::to_string(t));
          value = memory.read(op.array, op.address);
          ++st.bus_reads;
          break;
        case ir::OpKind::kStore:
          if (++row_writes[op.pe.row] > arch::kWriteBusesPerRow)
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
          value = ir::eval_op(op.kind, lhs, rhs, op.imm, mode);
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

}  // namespace reference

/// Runs `context` on the simulator and on the reference, each from its own
/// copy of `memory`, and requires equal SimResults, final memories and VCD
/// bytes. Leaves the simulator's final memory in `memory` and returns its
/// result.
sim::SimResult expect_matches_reference(
    const sched::ConfigurationContext& context, ir::Memory& memory,
    ir::DatapathMode mode, const std::string& what) {
  ir::Memory reference_memory = memory;
  const sim::SimResult result = sim::Machine(mode).run(context, memory);
  const sim::SimResult expected =
      reference::run_dense(context, reference_memory, mode);
  EXPECT_TRUE(result == expected)
      << what << ": SimResult differs from the reference";
  EXPECT_TRUE(memory == reference_memory)
      << what << ": final memory differs from the reference";
  EXPECT_EQ(sim::to_vcd(context, result), sim::to_vcd(context, expected))
      << what << ": VCD dump differs from the reference";
  return result;
}

/// How a run refused its context: the exception's dynamic type and message
/// (both empty when the run succeeded).
struct Refusal {
  std::string type;
  std::string message;
  bool operator==(const Refusal&) const = default;
};

template <typename Run>
Refusal refusal_of(const Run& run) {
  try {
    run();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {};
}

/// Runs `context` on the simulator and on the reference, each from its own
/// copy of `memory`; both must refuse it with the same exception type and
/// message. Returns the simulator's refusal.
Refusal expect_same_refusal(const sched::ConfigurationContext& context,
                            const ir::Memory& memory = {}) {
  const Refusal refusal = refusal_of([&] {
    ir::Memory copy = memory;
    sim::Machine().run(context, copy);
  });
  const Refusal expected = refusal_of([&] {
    ir::Memory copy = memory;
    reference::run_dense(context, copy, ir::DatapathMode::kExact);
  });
  EXPECT_FALSE(refusal.type.empty()) << "the simulator accepted the context";
  EXPECT_EQ(refusal.type, expected.type) << refusal.message;
  EXPECT_EQ(refusal.message, expected.message);
  return refusal;
}

class KernelOnArch
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(KernelOnArch, SimulatorMatchesGoldenModel) {
  const auto [kernel_name, arch_name] = GetParam();
  const kernels::Workload w = kernels::find_workload(kernel_name);
  const arch::Architecture a =
      arch_by_name(arch_name, w.array.rows, w.array.cols);

  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram program =
      mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler scheduler;
  const sched::ConfigurationContext context = scheduler.schedule(program, a);
  analysis::require_legal(context);

  ir::Memory sim_mem, golden_mem;
  w.setup(sim_mem);
  w.setup(golden_mem);
  const sim::SimResult result =
      expect_matches_reference(context, sim_mem, ir::DatapathMode::kExact,
                               kernel_name + " on " + arch_name);
  w.golden(golden_mem);

  EXPECT_TRUE(sim_mem == golden_mem)
      << kernel_name << " on " << arch_name
      << ": simulated memory differs from the golden model";

  // Utilisation sanity.
  EXPECT_EQ(result.stats.cycles, context.length());
  EXPECT_GT(result.stats.pe_utilization(), 0.0);
  EXPECT_LE(result.stats.pe_utilization(), 1.0);
  if (a.shares_multiplier() && result.stats.mult_ops > 0) {
    EXPECT_EQ(result.stats.shared_unit_issues, result.stats.mult_ops);
    EXPECT_LE(result.stats.shared_unit_utilization(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, KernelOnArch,
    ::testing::Combine(
        ::testing::Values("Hydro", "ICCG", "Tri-diagonal", "Inner product",
                          "State", "2D-FDCT", "SAD", "MVM", "FFT"),
        ::testing::Values("Base", "RS#1", "RS#2", "RS#3", "RS#4", "RSP#1",
                          "RSP#2", "RSP#3", "RSP#4")),
    [](const auto& info) {
      std::string n =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

// ------------------------------------------------------------- matmul demo
TEST(Simulator, MatmulFig2AndFig6ProduceIdenticalResults) {
  const kernels::Workload w = kernels::make_matmul(4);
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;

  ir::Memory base_mem, rsp_mem, golden;
  w.setup(base_mem);
  w.setup(rsp_mem);
  w.setup(golden);
  w.golden(golden);

  const sim::Machine machine;
  machine.run(s.schedule(p, arch::base_architecture(4, 4)), base_mem);
  machine.run(
      s.schedule(p, arch::custom_architecture("RSP", 4, 4, 1, 0, 2)),
      rsp_mem);
  EXPECT_TRUE(base_mem == golden);
  EXPECT_TRUE(rsp_mem == golden);
}

TEST(Simulator, DeeperPipelinesStillCorrect) {
  const kernels::Workload w = kernels::find_workload("FFT");
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram p = mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ContextScheduler s;
  for (int stages = 2; stages <= 4; ++stages) {
    ir::Memory mem, golden;
    w.setup(mem);
    w.setup(golden);
    w.golden(golden);
    sim::Machine machine;
    machine.run(
        s.schedule(p, arch::rsp_architecture(2, 8, 8, stages)), mem);
    EXPECT_TRUE(mem == golden) << stages << " stages";
  }
}

// ------------------------------------------------------ structural checks
//
// Every refusal is asserted against the reference: the simulator hoists
// the legality replay into SimProgram::compile, and it must reject exactly
// the schedules the dense per-cycle loop rejects, with the same exception
// type and message.
const std::string kError = typeid(Error).name();
const std::string kInvalidArgument = typeid(InvalidArgumentError).name();

TEST(Simulator, RefusesDoubleBookedPe) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<sched::ScheduledOp> ops;
  for (int i = 0; i < 2; ++i) {
    sched::ScheduledOp op;
    op.kind = ir::OpKind::kConst;
    op.pe = {0, 0};
    op.cycle = 0;
    ops.push_back(op);
  }
  EXPECT_EQ(expect_same_refusal(sched::ConfigurationContext(a, ops)).type,
            kError);
}

TEST(Simulator, RefusesOperandConsumedBeforeReady) {
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<sched::ScheduledOp> ops;
  sched::ScheduledOp mult;
  mult.kind = ir::OpKind::kMult;
  mult.pe = {0, 0};
  mult.cycle = 0;
  mult.latency = 2;
  mult.operands = {sched::ProgOperand{}, sched::ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  sched::ScheduledOp abs;
  abs.kind = ir::OpKind::kAbs;
  abs.pe = {0, 1};
  abs.cycle = 1;  // result only ready at cycle 2
  abs.operands = {sched::ProgOperand{0, 0}};
  ops.push_back(abs);
  EXPECT_EQ(expect_same_refusal(sched::ConfigurationContext(a, ops)).type,
            kError);
}

TEST(Simulator, RefusesBusOversubscription) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<sched::ScheduledOp> ops;
  for (int c = 0; c < 3; ++c) {
    sched::ScheduledOp ld;
    ld.kind = ir::OpKind::kLoad;
    ld.pe = {0, c};
    ld.cycle = 0;
    ld.array = "x";
    ld.address = c;
    ops.push_back(ld);
  }
  ir::Memory mem;
  mem.allocate("x", 8);
  EXPECT_EQ(
      expect_same_refusal(sched::ConfigurationContext(a, ops), mem).type,
      kError);
}

TEST(Simulator, Wrap16ModeAppliesDatapathWidth) {
  // A kernel whose adds overflow 16 bits behaves differently in kWrap16.
  const arch::Architecture a = arch::base_architecture();
  std::vector<sched::ScheduledOp> ops;
  sched::ScheduledOp big;
  big.kind = ir::OpKind::kConst;
  big.pe = {0, 0};
  big.cycle = 0;
  big.imm = 0x7fff;
  ops.push_back(big);
  sched::ScheduledOp add;
  add.kind = ir::OpKind::kAdd;
  add.pe = {0, 0};
  add.cycle = 1;
  add.operands = {sched::ProgOperand{0, 0}, sched::ProgOperand{-1, 1}};
  ops.push_back(add);
  const sched::ConfigurationContext ctx(a, ops);
  ir::Memory mem;
  const auto exact =
      expect_matches_reference(ctx, mem, ir::DatapathMode::kExact, "exact");
  EXPECT_EQ(exact.values[1], 0x8000);
  const auto wrapped =
      expect_matches_reference(ctx, mem, ir::DatapathMode::kWrap16, "wrap16");
  EXPECT_EQ(wrapped.values[1], -32768);
}

// ------------------------------------------------- entry-point validation
TEST(SimulatorValidation, ContextRejectsNegativeCycleNamingOp) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kConst;
  ops[1].pe = {0, 1};
  ops[1].cycle = -3;
  try {
    sched::ConfigurationContext ctx(arch::base_architecture(), ops);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("op 1"), std::string::npos)
        << e.what();
  }
}

TEST(SimulatorValidation, ContextRejectsNonPositiveLatencyNamingOp) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].latency = 0;
  try {
    sched::ConfigurationContext ctx(arch::base_architecture(), ops);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("op 0"), std::string::npos)
        << e.what();
  }
}

TEST(SimulatorValidation, RejectsOperandProducerOutOfRange) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kAbs;
  ops[1].pe = {0, 1};
  ops[1].cycle = 1;
  ops[1].operands = {sched::ProgOperand{5, 0}};  // only ops 0..1 exist
  const Refusal refusal = expect_same_refusal(
      sched::ConfigurationContext(arch::base_architecture(), ops));
  EXPECT_EQ(refusal.type, kInvalidArgument);
  EXPECT_NE(refusal.message.find("producer 5"), std::string::npos)
      << refusal.message;
}

TEST(SimulatorValidation, RejectsStoreWithoutValueOperand) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kStore;
  ops[0].array = "x";
  ir::Memory mem;
  mem.allocate("x", 4);
  EXPECT_EQ(expect_same_refusal(
                sched::ConfigurationContext(arch::base_architecture(), ops),
                mem)
                .type,
            kInvalidArgument);
}

TEST(SimulatorValidation, RejectsOpPlacedOutsideArray) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].pe = {9, 9};  // 8x8 array
  EXPECT_EQ(expect_same_refusal(
                sched::ConfigurationContext(arch::base_architecture(), ops))
                .type,
            kInvalidArgument);
}

TEST(SimulatorValidation, RejectsSharedUnitOutsidePools) {
  const arch::Architecture a = arch::rsp_architecture(1);  // 1 unit per row
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kMult;
  ops[0].latency = a.mult_latency();
  ops[0].operands = {sched::ProgOperand{}, sched::ProgOperand{}};
  ops[0].unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 3};
  EXPECT_EQ(expect_same_refusal(sched::ConfigurationContext(a, ops)).type,
            kInvalidArgument);
}

// --------------------------------------------------- SimProgram lifecycle
TEST(SimProgram, CompileOnceRunManyOnSparseSchedule) {
  // A deliberately sparse schedule: two issues, padded to 64 cycles by the
  // trailing op's latency... (cycle 0 const, cycle 60 add).
  const arch::Architecture a = arch::base_architecture();
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].imm = 21;
  ops[1].kind = ir::OpKind::kAdd;
  ops[1].pe = {0, 1};
  ops[1].cycle = 60;
  ops[1].latency = 4;
  ops[1].operands = {sched::ProgOperand{0, 0}, sched::ProgOperand{-1, 21}};
  const sched::ConfigurationContext ctx(a, ops);

  const sim::SimProgram program = sim::SimProgram::compile(ctx);
  EXPECT_EQ(program.size(), 2);
  EXPECT_EQ(program.total_cycles(), 64);
  EXPECT_EQ(program.active_cycle_count(), 2);  // only cycles 0 and 60 issue

  ir::Memory mem_a, mem_b;
  const sim::SimResult first = program.run(mem_a);
  EXPECT_EQ(first.values[1], 42);
  EXPECT_TRUE(program.static_stats() == first.stats);

  // The compiled program is immutable: a second run is bit-identical.
  const sim::SimResult second = program.run(mem_b);
  EXPECT_TRUE(second == first);
  EXPECT_TRUE(mem_a == mem_b);
}

// ---------------------------------------------------- VCD golden file
TEST(Simulator, VcdDumpMatchesCheckedInGolden) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const arch::Architecture a =
      arch_by_name("RSP#4", w.array.rows, w.array.cols);
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram program =
      mapper.map(w.kernel, w.hints, w.reduction);
  const sched::ConfigurationContext context =
      sched::ContextScheduler().schedule(program, a);

  std::string expected;
  {
    std::ifstream in(RSP_TEST_DATA_DIR "/sad_rsp4_golden.vcd",
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing tests/data/sad_rsp4_golden.vcd";
    std::ostringstream buf;
    buf << in.rdbuf();
    expected = buf.str();
  }

  ir::Memory mem, reference_mem;
  w.setup(mem);
  w.setup(reference_mem);
  const sim::SimResult result = sim::Machine().run(context, mem);
  EXPECT_EQ(sim::to_vcd(context, result), expected)
      << "VCD dump drifted from the checked-in golden file";
  const sim::SimResult reference_result = reference::run_dense(
      context, reference_mem, ir::DatapathMode::kExact);
  EXPECT_EQ(sim::to_vcd(context, reference_result), expected)
      << "the reference's VCD dump drifted from the checked-in golden file";
}

// ------------------------------------------- randomized equivalence check
//
// Legal-by-construction schedule generator: walks cycles in order and only
// emits issues that respect the same constraints the simulator enforces
// (PE occupancy, bus budgets, shared-unit arbitration, operand readiness),
// so every generated schedule must run to completion on the simulator and
// on the reference.
sched::ConfigurationContext random_context(util::Rng& rng,
                                           const arch::Architecture& a) {
  const arch::ArraySpec& array = a.array;
  const int length = static_cast<int>(rng.uniform(8, 24));
  const double density = 0.10 + 0.35 * rng.uniform01();
  constexpr int kArraySize = 32;

  std::vector<sched::ScheduledOp> ops;
  std::vector<int> pe_busy_until(static_cast<std::size_t>(array.num_pes()), 0);
  std::vector<int> ready_at;  // per emitted op

  for (int t = 0; t < length; ++t) {
    std::vector<int> row_reads(static_cast<std::size_t>(array.rows), 0);
    std::vector<int> row_writes(static_cast<std::size_t>(array.rows), 0);
    std::set<std::string> unit_taken;

    // Producers whose results are consumable this cycle.
    std::vector<int> ready;
    for (std::size_t i = 0; i < ready_at.size(); ++i)
      if (ready_at[i] <= t && ir::produces_value(ops[i].kind))
        ready.push_back(static_cast<int>(i));

    auto operand = [&]() {
      if (!ready.empty() && rng.chance(0.5)) {
        const int producer = ready[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(ready.size()) - 1))];
        return sched::ProgOperand{producer, 0};
      }
      return sched::ProgOperand{-1, rng.uniform(-50, 50)};
    };

    for (int pe = 0; pe < array.num_pes(); ++pe) {
      if (pe_busy_until[static_cast<std::size_t>(pe)] > t) continue;
      if (!rng.chance(density)) continue;
      const arch::PeCoord coord = array.coord(pe);

      sched::ScheduledOp op;
      op.pe = coord;
      op.cycle = t;
      const std::int64_t roll = rng.uniform(0, 9);
      switch (roll) {
        case 0:
        case 1:
          op.kind = ir::OpKind::kConst;
          op.imm = rng.uniform(-100, 100);
          break;
        case 2:
          op.kind = ir::OpKind::kAdd;
          op.operands = {operand(), operand()};
          break;
        case 3:
          op.kind = ir::OpKind::kSub;
          op.operands = {operand(), operand()};
          break;
        case 4:
          op.kind = ir::OpKind::kAbs;
          op.operands = {operand()};
          break;
        case 5:
          op.kind = ir::OpKind::kShift;
          op.operands = {operand()};
          op.imm = rng.uniform(-3, 3);
          break;
        case 6:
        case 7:
          op.kind = ir::OpKind::kMult;
          op.operands = {operand(), operand()};
          break;
        case 8:
          op.kind = ir::OpKind::kLoad;
          op.array = "m";
          op.address = rng.uniform(0, kArraySize - 1);
          break;
        default:
          op.kind = ir::OpKind::kStore;
          op.array = "m";
          op.address = rng.uniform(0, kArraySize - 1);
          op.operands = {operand()};
          break;
      }

      // Enforce the structural budgets the simulator checks; demote to a
      // kConst when a resource is exhausted so density stays high.
      if (op.kind == ir::OpKind::kLoad &&
          row_reads[static_cast<std::size_t>(coord.row)] >=
              arch::kReadBusesPerRow) {
        op = sched::ScheduledOp{};
        op.kind = ir::OpKind::kConst;
        op.pe = coord;
        op.cycle = t;
      }
      if (op.kind == ir::OpKind::kStore &&
          row_writes[static_cast<std::size_t>(coord.row)] >=
              arch::kWriteBusesPerRow) {
        op = sched::ScheduledOp{};
        op.kind = ir::OpKind::kConst;
        op.pe = coord;
        op.cycle = t;
      }
      if (op.kind == ir::OpKind::kMult && a.shares_multiplier()) {
        bool placed = false;
        for (const arch::SharedUnitId& unit :
             a.sharing.reachable_units(array, coord)) {
          if (unit_taken.insert(arch::to_string(unit)).second) {
            op.unit = unit;
            placed = true;
            break;
          }
        }
        if (!placed) {  // every reachable unit already issued this cycle
          op.kind = ir::OpKind::kAdd;
          if (op.operands.size() != 2) op.operands.resize(2);
        }
      }

      op.latency = op.kind == ir::OpKind::kMult ? a.mult_latency() : 1;
      if (op.kind == ir::OpKind::kLoad)
        ++row_reads[static_cast<std::size_t>(coord.row)];
      if (op.kind == ir::OpKind::kStore)
        ++row_writes[static_cast<std::size_t>(coord.row)];
      pe_busy_until[static_cast<std::size_t>(pe)] =
          t + (ir::is_critical_op(op.kind) ? op.latency : 1);
      ready_at.push_back(t + op.latency);
      ops.push_back(std::move(op));
    }
  }

  if (ops.empty()) {  // degenerate draw: keep the context constructible
    sched::ScheduledOp op;
    op.kind = ir::OpKind::kConst;
    ops.push_back(op);
  }
  return sched::ConfigurationContext(a, std::move(ops));
}

ir::Memory property_memory() {
  ir::Memory mem;
  mem.allocate("m", 32);
  for (int i = 0; i < 32; ++i) mem.write("m", i, i * 3 - 7);
  return mem;
}

TEST(SimulatorProperty, EventEngineMatchesDenseOnRandomSchedules) {
  util::Rng rng(0x5eed20260808ull);
  const arch::Architecture archs[] = {
      arch::base_architecture(4, 4), arch::rs_architecture(2, 4, 4),
      arch::rsp_architecture(1, 4, 4), arch::rsp_architecture(4, 4, 4)};
  int total_ops = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const arch::Architecture& a = archs[trial % 4];
    const ir::DatapathMode mode =
        trial % 3 == 0 ? ir::DatapathMode::kWrap16 : ir::DatapathMode::kExact;
    const sched::ConfigurationContext ctx = random_context(rng, a);
    total_ops += static_cast<int>(ctx.size());
    ir::Memory mem = property_memory();
    expect_matches_reference(ctx, mem, mode,
                             "trial " + std::to_string(trial) + " on " +
                                 a.name);
  }
  EXPECT_GT(total_ops, 500) << "generator produced suspiciously few ops";

  // The design axis DSE explores: random in-template points with 1-8
  // pipeline stages and 0-4 units per row and per column pool. Draws
  // custom_architecture refuses (Architecture::validate, or pipelining
  // without sharing) are skipped.
  int points = 0, deep_points = 0, mult_ops = 0;
  for (int draw = 0; points < 64; ++draw) {
    const int per_row = static_cast<int>(rng.uniform(0, 4));
    const int per_col = static_cast<int>(rng.uniform(0, 4));
    const int stages = static_cast<int>(rng.uniform(1, 8));
    arch::Architecture a;
    try {
      a = arch::custom_architecture(
          "custom(" + std::to_string(per_row) + "r," +
              std::to_string(per_col) + "c,p" + std::to_string(stages) + ")",
          4, 4, per_row, per_col, stages);
    } catch (const InvalidArgumentError&) {
      continue;
    }
    ++points;
    if (stages > 2) ++deep_points;
    const ir::DatapathMode mode =
        draw % 3 == 0 ? ir::DatapathMode::kWrap16 : ir::DatapathMode::kExact;
    const sched::ConfigurationContext ctx = random_context(rng, a);
    ir::Memory mem = property_memory();
    const sim::SimResult result = expect_matches_reference(
        ctx, mem, mode, "draw " + std::to_string(draw) + " on " + a.name);
    mult_ops += static_cast<int>(result.stats.mult_ops);
  }
  EXPECT_GT(deep_points, 16) << "too few points deeper than the suite's";
  EXPECT_GT(mult_ops, 100) << "too few multiplications on custom points";
}

}  // namespace
}  // namespace rsp
