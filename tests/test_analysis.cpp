// Static verification layer (src/analysis): the schedule/program linter.
//
// The load-bearing contract is one-source-of-truth: for every error-class
// rule, the linter's diagnostic message must be byte-identical to the
// exception the simulator throws on the same context — because both run
// the same analysis::validation_pass / structural_pass. Each rule class in
// docs/ANALYSIS.md gets a test asserting its stable id, its locus, and
// (for error rules) that message-for-message agreement; the whole kernel
// catalogue is pinned lint-clean and the fuzz corpus warning-profile is
// golden-tested.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/context_json.hpp"
#include "analysis/verifier.hpp"
#include "api/protocol.hpp"
#include "api/service.hpp"
#include "arch/presets.hpp"
#include "gen/fuzz.hpp"
#include "gen/generator.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "util/error.hpp"

namespace rsp {
namespace {

using analysis::Diagnostic;
using analysis::LintReport;
using analysis::Severity;

/// First diagnostic of `rule`, or nullptr.
const Diagnostic* find_rule(const LintReport& report,
                            const std::string& rule) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule == rule) return &d;
  return nullptr;
}

sched::ConfigurationContext schedule_workload(const kernels::Workload& w,
                                              const arch::Architecture& a) {
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram program =
      mapper.map(w.kernel, w.hints, w.reduction);
  return sched::ContextScheduler().schedule(program, a);
}

/// The exception message `sim::Machine::run` raises on `ctx` — the text
/// every validation-class diagnostic must reproduce byte-for-byte.
std::string run_error(const sched::ConfigurationContext& ctx) {
  ir::Memory mem;
  try {
    sim::Machine().run(ctx, mem);
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "simulator accepted a context the linter rejects";
  return "";
}

/// Ditto for structural-class rules: `sim::SimProgram::compile`'s message.
std::string compile_error(const sched::ConfigurationContext& ctx) {
  try {
    sim::SimProgram::compile(ctx);
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "compile accepted a context the linter rejects";
  return "";
}

// ------------------------------------------------- validation rules (V)

TEST(LintValidation, V001NegativeCycleMatchesConstructorMessage) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kConst;
  ops[1].pe = {0, 1};
  ops[1].cycle = -3;

  std::string constructor_message;
  try {
    sched::ConfigurationContext ctx(arch::base_architecture(), ops);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    constructor_message = e.what();
  }

  const LintReport report =
      analysis::lint_schedule(arch::base_architecture(), ops);
  const Diagnostic* d = find_rule(report, "RSP-V001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_EQ(d->locus.cycle, -3);
  EXPECT_EQ(d->message, constructor_message);
  EXPECT_FALSE(d->hint.empty());
  EXPECT_FALSE(report.clean());
}

TEST(LintValidation, V002NonPositiveLatencyMatchesConstructorMessage) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].latency = 0;

  std::string constructor_message;
  try {
    sched::ConfigurationContext ctx(arch::base_architecture(), ops);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    constructor_message = e.what();
  }

  const LintReport report =
      analysis::lint_schedule(arch::base_architecture(), ops);
  const Diagnostic* d = find_rule(report, "RSP-V002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_EQ(d->message, constructor_message);
}

TEST(LintValidation, V003PeOutsideArrayMatchesSimulatorMessage) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].pe = {9, 9};  // 8x8 array
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-V003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_EQ(d->locus.pe_row, 9);
  EXPECT_EQ(d->locus.pe_col, 9);
  EXPECT_EQ(d->message, run_error(ctx));
  EXPECT_THROW(analysis::verify_context(ctx), InvalidArgumentError);
}

TEST(LintValidation, V004ProducerOutOfRangeMatchesSimulatorMessage) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kAbs;
  ops[1].pe = {0, 1};
  ops[1].cycle = 1;
  ops[1].operands = {sched::ProgOperand{5, 0}};  // only ops 0..1 exist
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-V004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_EQ(d->locus.cycle, 1);
  EXPECT_EQ(d->message, run_error(ctx));
}

TEST(LintValidation, V005StoreWithoutValueMatchesSimulatorMessage) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kStore;
  ops[0].array = "x";
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-V005");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_EQ(d->message, run_error(ctx));
}

TEST(LintValidation, V006UnitOutsidePoolsMatchesSimulatorMessage) {
  const arch::Architecture a = arch::rsp_architecture(1);  // 1 unit per row
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kMult;
  ops[0].latency = a.mult_latency();
  ops[0].operands = {sched::ProgOperand{}, sched::ProgOperand{}};
  ops[0].unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 3};
  const sched::ConfigurationContext ctx(a, ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-V006");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_EQ(d->message, run_error(ctx));
}

TEST(LintValidation, V007OrderDepOutOfRangeMatchesSimulatorMessage) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kLoad;
  ops[0].array = "x";
  ops[0].order_deps = {4};  // only op 0 exists
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-V007");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_EQ(d->message, run_error(ctx));
  EXPECT_THROW(analysis::verify_context(ctx), InvalidArgumentError);
}

TEST(LintValidation, V007BoundsOrderDepsOfScheduleDocuments) {
  // Any int64 decodes; out-of-range deps on either side are named
  // findings, never an out-of-bounds read (the asan preset runs this).
  const analysis::ScheduleDocument doc = analysis::parse_schedule(
      "{\"arch\": \"Base\", \"ops\": ["
      "{\"op\": \"load\", \"pe\": [0, 0], \"cycle\": 0, "
      "\"array\": \"x\", \"order_deps\": [5000000000, 1]},"
      "{\"op\": \"load\", \"pe\": [0, 1], \"cycle\": 2, "
      "\"array\": \"x\", \"order_deps\": [-1, -9000000000000000000]}]}");
  const LintReport report =
      analysis::lint_schedule(doc.architecture, doc.ops);
  std::vector<int> v007_ops;
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule == "RSP-V007") v007_ops.push_back(d.locus.op);
  EXPECT_EQ(v007_ops, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(report.error_count(), 3);
  // The in-range dep (op 0 waits for op 1 at cycle 2) is a hardware
  // finding, not an error.
  const Diagnostic* w = find_rule(report, "RSP-W009");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->locus.op, 0);
}

TEST(LintValidation, V008BoundsEndCyclesOfScheduleDocuments) {
  // The two checked-in documents `rsp_cli lint --context` smoke-tests: an
  // op issuing at cycle 2e9 (the replay would size per-cycle state by it)
  // and one whose cycle + latency overflows int. Both are named findings
  // that stay out of the length and the replay (the asan/UBSan preset
  // runs this).
  for (const char* name :
       {"cycle_past_bound_context.json", "end_cycle_overflow_context.json"}) {
    std::ifstream in(std::string(RSP_TEST_DATA_DIR) + "/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::ostringstream text;
    text << in.rdbuf();
    const analysis::ScheduleDocument doc =
        analysis::parse_schedule(text.str());
    const LintReport report =
        analysis::lint_schedule(doc.architecture, doc.ops);
    EXPECT_EQ(report.error_count(), 1) << name;  // and lint-only warnings
    ASSERT_FALSE(report.diagnostics.empty()) << name;
    const Diagnostic& d = report.diagnostics.front();
    EXPECT_EQ(d.rule, "RSP-V008") << name;
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_EQ(d.locus.op, 0);
    EXPECT_NE(d.message.find("past the 2097152-cycle bound"),
              std::string::npos)
        << d.message;
    EXPECT_FALSE(d.hint.empty());
  }

  // Beside an in-bound op the length is the in-bound op's: the op at cycle
  // 2e9 does not double-book PE (0, 0) and gets no RSP-V001 range finding.
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kConst;
  ops[1].cycle = 2'000'000'000;
  const LintReport report =
      analysis::lint_schedule(arch::base_architecture(), ops);
  EXPECT_EQ(report.error_count(), 1);
  const Diagnostic* d = find_rule(report, "RSP-V008");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_EQ(d->message, "simulator: op 1 ends at cycle 2000000001, past the "
                        "2097152-cycle bound on schedules");

  // A constructed context past the bound is refused by the simulator with
  // the same message, before any per-cycle allocation.
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);
  EXPECT_EQ(run_error(ctx), d->message);
  EXPECT_EQ(find_rule(analysis::lint_context(ctx), "RSP-V008")->message,
            d->message);

  // The bound is inclusive: an op ending exactly on it is in range.
  ops[1].cycle = static_cast<int>(analysis::kMaxScheduleLength) - 1;
  EXPECT_EQ(find_rule(analysis::lint_schedule(arch::base_architecture(), ops),
                      "RSP-V008"),
            nullptr);
}

// ------------------------------------------------- structural rules (S)

TEST(LintStructural, S001PeDoubleBookedMatchesCompileMessage) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kConst;  // same PE (0,0), same cycle 0
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-S001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_EQ(d->locus.cycle, 0);
  EXPECT_EQ(d->message, compile_error(ctx));
  EXPECT_THROW(analysis::verify_structural(ctx), Error);
}

TEST(LintStructural, S002ReadBusOversubscribedMatchesCompileMessage) {
  // Base rows have 2 read buses; a third same-row load in one cycle spills.
  std::vector<sched::ScheduledOp> ops(3);
  for (int i = 0; i < 3; ++i) {
    ops[static_cast<std::size_t>(i)].kind = ir::OpKind::kLoad;
    ops[static_cast<std::size_t>(i)].pe = {0, i};
    ops[static_cast<std::size_t>(i)].array = "x";
    ops[static_cast<std::size_t>(i)].address = i;
  }
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-S002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 2);
  EXPECT_EQ(d->locus.cycle, 0);
  EXPECT_EQ(d->message, compile_error(ctx));
}

TEST(LintStructural, S003WriteBusOversubscribedMatchesCompileMessage) {
  // Base rows have 1 write bus; two same-row stores in one cycle collide.
  std::vector<sched::ScheduledOp> ops(2);
  for (int i = 0; i < 2; ++i) {
    ops[static_cast<std::size_t>(i)].kind = ir::OpKind::kStore;
    ops[static_cast<std::size_t>(i)].pe = {0, i};
    ops[static_cast<std::size_t>(i)].array = "x";
    ops[static_cast<std::size_t>(i)].address = i;
    ops[static_cast<std::size_t>(i)].operands = {sched::ProgOperand{-1, 7}};
  }
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-S003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_EQ(d->locus.cycle, 0);
  EXPECT_EQ(d->message, compile_error(ctx));
}

TEST(LintStructural, S004SharedMultiplyWithoutUnitMatchesCompileMessage) {
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kMult;
  ops[0].latency = a.mult_latency();
  ops[0].operands = {sched::ProgOperand{-1, 2}, sched::ProgOperand{-1, 3}};
  const sched::ConfigurationContext ctx(a, ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-S004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_EQ(d->message, compile_error(ctx));
}

TEST(LintStructural, S005UnitDoubleIssuedMatchesCompileMessage) {
  const arch::Architecture a = arch::rsp_architecture(1);
  const arch::SharedUnitId unit{arch::SharedUnitId::Pool::kRow, 0, 0};
  std::vector<sched::ScheduledOp> ops(2);
  for (int i = 0; i < 2; ++i) {
    ops[static_cast<std::size_t>(i)].kind = ir::OpKind::kMult;
    ops[static_cast<std::size_t>(i)].pe = {0, i};  // distinct PEs: no S001
    ops[static_cast<std::size_t>(i)].latency = a.mult_latency();
    ops[static_cast<std::size_t>(i)].operands = {sched::ProgOperand{-1, 2},
                                                 sched::ProgOperand{-1, 3}};
    ops[static_cast<std::size_t>(i)].unit = unit;
  }
  const sched::ConfigurationContext ctx(a, ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-S005");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_EQ(d->locus.cycle, 0);
  EXPECT_EQ(d->message, compile_error(ctx));
}

TEST(LintStructural, S006OperandBeforeReadyMatchesCompileMessage) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].latency = 2;  // result ready at cycle 2
  ops[1].kind = ir::OpKind::kAdd;
  ops[1].pe = {0, 1};
  ops[1].cycle = 1;  // consumes at cycle 1
  ops[1].operands = {sched::ProgOperand{0, 0}, sched::ProgOperand{-1, 1}};
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-S006");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_EQ(d->locus.cycle, 1);
  EXPECT_EQ(d->message, compile_error(ctx));
}

// --------------------------------------------------- warning rules (W)
//
// Everything below is simulator-legal — the engines accept the context —
// so each test also pins report.clean() true (unless stated otherwise).

TEST(LintWarnings, W001FutureProducerReadsInitialZero) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kAbs;
  ops[0].operands = {sched::ProgOperand{1, 0}};  // producer issues later
  ops[1].kind = ir::OpKind::kConst;
  ops[1].pe = {0, 1};
  ops[1].cycle = 1;
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_EQ(d->locus.cycle, 0);
}

TEST(LintWarnings, W002DeadValueNeverConsumed) {
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].imm = 42;
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);
}

TEST(LintWarnings, W003IterationInversion) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[0].iter = 2;
  ops[1].kind = ir::OpKind::kAbs;
  ops[1].pe = {0, 1};
  ops[1].cycle = 1;
  ops[1].iter = 0;
  ops[1].operands = {sched::ProgOperand{0, 0}};
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 1);
}

TEST(LintWarnings, W004SameCycleDoubleStore) {
  std::vector<sched::ScheduledOp> ops(2);
  for (int i = 0; i < 2; ++i) {
    ops[static_cast<std::size_t>(i)].kind = ir::OpKind::kStore;
    ops[static_cast<std::size_t>(i)].pe = {i, 0};  // rows differ: no S003
    ops[static_cast<std::size_t>(i)].array = "x";
    ops[static_cast<std::size_t>(i)].address = 3;
    ops[static_cast<std::size_t>(i)].operands = {sched::ProgOperand{-1, i}};
  }
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 1);  // anchored to the second store
  EXPECT_EQ(d->locus.cycle, 0);
}

TEST(LintWarnings, W005SameCycleLoadAndStore) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kLoad;
  ops[0].array = "x";
  ops[0].address = 3;
  ops[1].kind = ir::OpKind::kStore;
  ops[1].pe = {1, 0};
  ops[1].array = "x";
  ops[1].address = 3;
  ops[1].operands = {sched::ProgOperand{-1, 9}};
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W005");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);  // anchored to the load
  EXPECT_EQ(d->locus.cycle, 0);
}

TEST(LintWarnings, W006AggregateSharedPoolOversubscription) {
  // 2x2 array with one row-pool unit per row: 2 physical units total, so 3
  // critical issues in one cycle cannot be legalised by any assignment.
  // The unit collisions also produce S005 errors — W006 is the aggregate
  // explanation on top, anchored to the cycle (op = -1).
  const arch::Architecture a =
      arch::custom_architecture("tiny-shared", 2, 2, 1, 0, 1);
  std::vector<sched::ScheduledOp> ops(3);
  const arch::PeCoord pes[3] = {{0, 0}, {0, 1}, {1, 0}};
  for (int i = 0; i < 3; ++i) {
    ops[static_cast<std::size_t>(i)].kind = ir::OpKind::kMult;
    ops[static_cast<std::size_t>(i)].pe = pes[i];
    ops[static_cast<std::size_t>(i)].latency = a.mult_latency();
    ops[static_cast<std::size_t>(i)].operands = {sched::ProgOperand{-1, 2},
                                                 sched::ProgOperand{-1, 3}};
    ops[static_cast<std::size_t>(i)].unit = arch::SharedUnitId{
        arch::SharedUnitId::Pool::kRow, pes[i].row, 0};
  }
  const sched::ConfigurationContext ctx(a, ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-W006");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->locus.op, -1);
  EXPECT_EQ(d->locus.cycle, 0);
}

TEST(LintWarnings, W007UnroutableOperand) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;  // PE (0,0)
  ops[1].kind = ir::OpKind::kAbs;
  ops[1].pe = {3, 5};  // neither same row/col nor neighbour of (0,0)
  ops[1].cycle = 1;
  ops[1].operands = {sched::ProgOperand{0, 0}};
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W007");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_EQ(d->locus.pe_row, 3);
  EXPECT_EQ(d->locus.pe_col, 5);
}

TEST(LintWarnings, W008UnitUnreachableFromPe) {
  const arch::Architecture a = arch::rsp_architecture(1);  // row pools
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kMult;  // PE (0,0)
  ops[0].latency = a.mult_latency();
  ops[0].operands = {sched::ProgOperand{-1, 2}, sched::ProgOperand{-1, 3}};
  // Row 5's unit exists (no V006) but PE (0,0) only reaches row 0's pool.
  ops[0].unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 5, 0};
  const sched::ConfigurationContext ctx(a, ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W008");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);
}

TEST(LintWarnings, W009OrderDepNotDone) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kStore;
  ops[0].array = "x";
  ops[0].operands = {sched::ProgOperand{-1, 7}};
  ops[1].kind = ir::OpKind::kLoad;
  ops[1].pe = {1, 0};
  ops[1].array = "x";
  ops[1].order_deps = {0};  // must wait for the store; issues with it
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W009");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->locus.op, 1);
  EXPECT_TRUE(analysis::blocks_hardware(d->severity, d->rule));
  EXPECT_FALSE(analysis::check_legality(ctx).ok);
}

TEST(LintWarnings, W010LatencyDiffersFromArchitecture) {
  const arch::Architecture a = arch::rsp_architecture(1);  // 2 stages
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kMult;
  ops[0].latency = 3;
  ops[0].operands = {sched::ProgOperand{-1, 2}, sched::ProgOperand{-1, 3}};
  ops[0].unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  const sched::ConfigurationContext ctx(a, ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W010");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_TRUE(analysis::blocks_hardware(d->severity, d->rule));
  EXPECT_FALSE(analysis::check_legality(ctx).ok);
}

TEST(LintWarnings, W011UnitOnOpThatTakesNone) {
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;  // not a critical op
  ops[0].unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  const sched::ConfigurationContext ctx(a, ops);

  const LintReport report = analysis::lint_context(ctx);
  EXPECT_TRUE(report.clean());
  const Diagnostic* d = find_rule(report, "RSP-W011");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->locus.op, 0);
  EXPECT_TRUE(analysis::blocks_hardware(d->severity, d->rule));
  EXPECT_FALSE(analysis::check_legality(ctx).ok);
}

TEST(LintWarnings, LintOnlyRulesDoNotBlockTheHardware) {
  // A dead value (W002) is suspicious, not illegal: check_legality skips
  // the lint-only pass, and the legality read off a full lint agrees.
  std::vector<sched::ScheduledOp> ops(1);
  ops[0].kind = ir::OpKind::kConst;
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);

  const LintReport report = analysis::lint_context(ctx);
  const Diagnostic* d = find_rule(report, "RSP-W002");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(analysis::blocks_hardware(d->severity, d->rule));
  EXPECT_TRUE(analysis::legality_of(report).ok);
  EXPECT_TRUE(analysis::check_legality(ctx).ok);
}

// ------------------------------------------------- toolchain rule (T001)

TEST(LintProtocol, T001RowSurvivesProtocolEncoding) {
  // RSP-T001 is synthesized by Service::lint when mapping/scheduling dies
  // before a context exists; no catalogue pair triggers it, so pin the
  // reporting path: the wire body must carry the rule id, severity and
  // message with the empty locus omitted.
  api::LintResponse resp;
  api::LintResponse::Row row;
  row.kernel = "K";
  row.arch = "RSP#1";
  row.report.diagnostics.push_back(analysis::Diagnostic{
      "RSP-T001", Severity::kError, analysis::Locus{},
      "mapper: kernel does not fit", "hint"});
  resp.rows.push_back(row);
  ASSERT_EQ(resp.error_count(), 1);
  ASSERT_FALSE(resp.clean());

  const util::Json body = api::to_body(resp);
  EXPECT_FALSE(body.at("clean").as_bool());
  EXPECT_EQ(body.at("errors").as_int("errors"), 1);
  const util::Json& entry = body.at("results").at(0).at("diagnostics").at(0);
  EXPECT_EQ(entry.at("rule").as_string(), "RSP-T001");
  EXPECT_EQ(entry.at("severity").as_string(), "error");
  EXPECT_EQ(entry.at("message").as_string(), "mapper: kernel does not fit");
  EXPECT_FALSE(entry.contains("op"));  // empty locus is omitted
  EXPECT_FALSE(entry.contains("pe"));
}

// ------------------------------------------- report plumbing + catalogue

TEST(LintReportJson, RoundTripsThroughUtilJson) {
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kConst;  // S001 error + two W002 warnings
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);
  const LintReport report = analysis::lint_context(ctx);
  ASSERT_FALSE(report.clean());

  const util::Json parsed = util::Json::parse(report.to_json().dump());
  EXPECT_EQ(parsed.at("errors").as_int("errors"), report.error_count());
  EXPECT_EQ(parsed.at("warnings").as_int("warnings"),
            report.warning_count());
  ASSERT_EQ(static_cast<int>(parsed.at("diagnostics").size()),
            static_cast<int>(report.diagnostics.size()));
  const util::Json& first = parsed.at("diagnostics").at(0);
  EXPECT_EQ(first.at("rule").as_string(), report.diagnostics[0].rule);
  EXPECT_EQ(first.at("message").as_string(),
            report.diagnostics[0].message);
  EXPECT_EQ(first.at("op").as_int("op"), report.diagnostics[0].locus.op);
}

TEST(LintSubject, ContextJsonRoundTripsAndAgreesWithDirectLint) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const arch::Architecture a =
      arch::rsp_architecture(4, w.array.rows, w.array.cols);
  const sched::ConfigurationContext ctx = schedule_workload(w, a);

  const util::Json doc = analysis::encode_schedule(a, ctx.ops());
  const analysis::ScheduleDocument decoded =
      analysis::parse_schedule(doc.dump());
  EXPECT_EQ(decoded.architecture.name, a.name);
  ASSERT_EQ(decoded.ops.size(), ctx.ops().size());
  // Re-encoding the decoded document must be byte-stable.
  EXPECT_EQ(analysis::encode_schedule(decoded.architecture, decoded.ops)
                .dump(),
            doc.dump());
  // And the decoded subject must lint identically to the live context.
  const LintReport direct = analysis::lint_context(ctx);
  const LintReport decoded_report =
      analysis::lint_schedule(decoded.architecture, decoded.ops);
  EXPECT_EQ(decoded_report.diagnostics, direct.diagnostics);
}

TEST(LintSubject, MalformedDocumentsThrow) {
  EXPECT_THROW(analysis::parse_schedule("not json"), Error);
  EXPECT_THROW(analysis::parse_schedule("{\"ops\": []}"),
               InvalidArgumentError);  // missing arch
  EXPECT_THROW(
      analysis::parse_schedule(
          "{\"arch\": \"RSP#1\", \"ops\": [], \"bogus\": 1}"),
      InvalidArgumentError);  // unknown key
  EXPECT_THROW(
      analysis::parse_schedule(
          "{\"arch\": \"RSP#1\", \"ops\": [{\"op\": \"teleport\"}]}"),
      InvalidArgumentError);  // unknown op kind
}

TEST(LintCatalogue, EveryKernelOnEveryArchitectureIsStrictlyClean) {
  // The toolchain's own output must carry zero findings of any severity —
  // this is the regression net for both the scheduler and the linter.
  for (const kernels::Workload& w : kernels::full_catalogue()) {
    for (const arch::Architecture& a :
         arch::standard_suite(w.array.rows, w.array.cols)) {
      const LintReport report =
          analysis::lint_context(schedule_workload(w, a));
      EXPECT_TRUE(report.diagnostics.empty())
          << w.name << " on " << a.name << ": "
          << (report.diagnostics.empty()
                  ? ""
                  : report.diagnostics[0].rule + ": " +
                        report.diagnostics[0].message);
    }
  }
}

TEST(LintCatalogue, ServiceLintIsCleanOverTheCatalogue) {
  api::ServiceOptions options;
  options.max_inflight = 1;
  const api::Service service(options);
  const api::LintResponse resp = service.lint({"", ""});
  EXPECT_TRUE(resp.clean());
  EXPECT_EQ(resp.error_count(), 0);
  EXPECT_EQ(resp.warning_count(), 0);
  // catalogue × standard suite rows
  EXPECT_EQ(resp.rows.size(),
            kernels::full_catalogue().size() * arch::standard_suite().size());
}

TEST(LintCorpus, FuzzCorpusHasNoErrorsAndOnlyDeadAddressChainWarnings) {
  // Generated kernels legitimately carry dead const/add address-chain ops
  // (RSP-W002); anything else — any error, any other warning class — is a
  // generator or linter regression.
  const std::vector<std::uint64_t> seeds =
      gen::load_corpus(RSP_TEST_DATA_DIR "/gen_corpus");
  ASSERT_FALSE(seeds.empty());
  for (const std::uint64_t seed : seeds) {
    gen::GeneratorConfig config;
    config.seed = seed;
    const kernels::Workload w = gen::generate_workload(config);
    for (const char* arch_name : {"Base", "RSP#4"}) {
      const arch::Architecture a =
          arch_name == std::string("Base")
              ? arch::base_architecture(w.array.rows, w.array.cols)
              : arch::rsp_architecture(4, w.array.rows, w.array.cols);
      const LintReport report =
          analysis::lint_context(schedule_workload(w, a));
      EXPECT_EQ(report.error_count(), 0)
          << "gen:" << seed << " on " << a.name;
      for (const Diagnostic& d : report.diagnostics)
        EXPECT_EQ(d.rule, "RSP-W002")
            << "gen:" << seed << " on " << a.name << ": " << d.message;
    }
  }
}

}  // namespace
}  // namespace rsp
