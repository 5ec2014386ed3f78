// The one legality engine, analysis::check_legality. The first half builds
// small illegal contexts by hand and pins the rule id each violation class
// is diagnosed under. The second half keeps the retired std::map-based
// checker (formerly sched::check_legality) as a reference and pins
// agreement with it — and with the legality read off a full lint — over the
// catalogue, generated kernels and seeded single-field mutations of both.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "gen/generator.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsp::sched {
namespace {

using analysis::check_legality;
using analysis::LegalityReport;
using analysis::require_legal;

ScheduledOp make_op(ir::OpKind kind, arch::PeCoord pe, int cycle,
                    int latency = 1) {
  ScheduledOp op;
  op.kind = kind;
  op.pe = pe;
  op.cycle = cycle;
  op.latency = latency;
  if (ir::is_memory_op(kind)) {
    op.array = "x";
    op.address = 0;
  }
  if (ir::op_arity(kind) >= 1) op.operands.resize(ir::op_arity(kind));
  return op;
}

/// Rule id of a violation; violations read "RSP-xxxx: message".
std::string rule_of(const std::string& violation) {
  return violation.substr(0, violation.find(':'));
}

/// Rule id of the first violation `ops` on `a` is rejected for.
std::string first_rule(const arch::Architecture& a,
                       const std::vector<ScheduledOp>& ops) {
  const LegalityReport rep = check_legality(ConfigurationContext(a, ops));
  EXPECT_FALSE(rep.ok);
  return rep.ok ? "" : rule_of(rep.violations.front());
}

TEST(Legality, AcceptsMinimalLegalContext) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kLoad, {0, 0}, 0));
  auto add = make_op(ir::OpKind::kAbs, {0, 0}, 1);
  add.operands[0] = ProgOperand{0, 0};
  ops.push_back(add);
  const ConfigurationContext ctx(a, ops);
  EXPECT_TRUE(check_legality(ctx).ok);
  EXPECT_NO_THROW(require_legal(ctx));
}

TEST(Legality, CatchesUseBeforeReady) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kLoad, {0, 0}, 3));
  auto abs = make_op(ir::OpKind::kAbs, {0, 1}, 3);  // same cycle as producer
  abs.operands[0] = ProgOperand{0, 0};
  ops.push_back(abs);
  EXPECT_EQ(first_rule(a, ops), "RSP-S006");
  EXPECT_THROW(require_legal(ConfigurationContext(a, ops)), Error);
}

TEST(Legality, CatchesPeDoubleBooking) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {2, 2}, 5));
  ops.push_back(make_op(ir::OpKind::kConst, {2, 2}, 5));
  EXPECT_EQ(first_rule(a, ops), "RSP-S001");
}

TEST(Legality, CatchesPipelinedPeOverlap) {
  // On RSP, a mult occupies its PE for both stages; an op in the second
  // stage cycle collides.
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0, 2);
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 1));
  EXPECT_EQ(first_rule(a, ops), "RSP-S001");
}

TEST(Legality, CatchesReadBusOversubscription) {
  const arch::Architecture a = arch::base_architecture();  // 2 read buses
  std::vector<ScheduledOp> ops;
  for (int c = 0; c < 3; ++c)
    ops.push_back(make_op(ir::OpKind::kLoad, {4, c}, 7));
  EXPECT_EQ(first_rule(a, ops), "RSP-S002");
}

TEST(Legality, CatchesWriteBusOversubscription) {
  const arch::Architecture a = arch::base_architecture();  // 1 write bus
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {1, 0}, 0));
  ops.push_back(make_op(ir::OpKind::kConst, {1, 1}, 0));
  for (int c = 0; c < 2; ++c) {
    auto st = make_op(ir::OpKind::kStore, {1, c}, 2);
    st.operands[0] = ProgOperand{c, 0};
    ops.push_back(st);
  }
  EXPECT_EQ(first_rule(a, ops), "RSP-S003");
}

TEST(Legality, CatchesMissingUnitOnSharingArchitecture) {
  const arch::Architecture a = arch::rs_architecture(1);
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0);
  mult.operands = {ProgOperand{}, ProgOperand{}};
  ops.push_back(mult);  // no unit assigned
  EXPECT_EQ(first_rule(a, ops), "RSP-S004");
}

TEST(Legality, CatchesUnreachableUnit) {
  const arch::Architecture a = arch::rs_architecture(1);  // row pools only
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0);
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 5, 0};
  ops.push_back(mult);  // row 5's unit from a row 0 PE
  EXPECT_EQ(first_rule(a, ops), "RSP-W008");
}

TEST(Legality, CatchesUnitDoubleIssue) {
  const arch::Architecture a = arch::rs_architecture(1);
  std::vector<ScheduledOp> ops;
  for (int c = 0; c < 2; ++c) {
    auto mult = make_op(ir::OpKind::kMult, {0, c}, 0);
    mult.operands = {ProgOperand{}, ProgOperand{}};
    mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
    ops.push_back(mult);
  }
  EXPECT_EQ(first_rule(a, ops), "RSP-S005");
}

TEST(Legality, CatchesUnitOnNonSharingArchitecture) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0);
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  EXPECT_EQ(first_rule(a, ops), "RSP-W011");
}

TEST(Legality, CatchesWrongLatency) {
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0, /*latency=*/1);  // must be 2
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  EXPECT_EQ(first_rule(a, ops), "RSP-W010");
}

TEST(Legality, CatchesUnroutableOperand) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 0));
  auto abs = make_op(ir::OpKind::kAbs, {3, 5}, 2);  // diagonal, >1 hop
  abs.operands[0] = ProgOperand{0, 0};
  ops.push_back(abs);
  EXPECT_EQ(first_rule(a, ops), "RSP-W007");
}

TEST(Legality, CatchesMemoryOrderingViolation) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 0));
  auto st = make_op(ir::OpKind::kStore, {0, 0}, 2);
  st.operands[0] = ProgOperand{0, 0};
  ops.push_back(st);
  auto ld = make_op(ir::OpKind::kLoad, {0, 1}, 2);  // same cycle as store
  ld.order_deps = {1};
  ops.push_back(ld);
  EXPECT_EQ(first_rule(a, ops), "RSP-W009");
}

TEST(Legality, CatchesOrderDepOutOfRange) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  auto ld = make_op(ir::OpKind::kLoad, {0, 0}, 0);
  ld.order_deps = {7};
  ops.push_back(ld);
  EXPECT_EQ(first_rule(a, ops), "RSP-V007");
}

TEST(Legality, ContextRejectsNegativeCycleOrLatency) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> bad_cycle = {make_op(ir::OpKind::kConst, {0, 0}, -1)};
  EXPECT_THROW(ConfigurationContext(a, bad_cycle), InvalidArgumentError);
  std::vector<ScheduledOp> bad_lat = {
      make_op(ir::OpKind::kConst, {0, 0}, 0, 0)};
  EXPECT_THROW(ConfigurationContext(a, bad_lat), InvalidArgumentError);
}

TEST(Legality, ReportAggregatesMultipleViolations) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 0));
  ops.push_back(make_op(ir::OpKind::kConst, {0, 0}, 0));  // PE clash
  for (int c = 0; c < 3; ++c)
    ops.push_back(make_op(ir::OpKind::kLoad, {1, c}, 0));  // bus clash
  const LegalityReport rep = check_legality(ConfigurationContext(a, ops));
  ASSERT_FALSE(rep.ok);
  EXPECT_GE(rep.violations.size(), 2u);
}

TEST(Legality, RequireLegalNamesTheFirstRule) {
  const arch::Architecture a = arch::base_architecture();
  std::vector<ScheduledOp> ops;
  ops.push_back(make_op(ir::OpKind::kConst, {2, 2}, 5));
  ops.push_back(make_op(ir::OpKind::kConst, {2, 2}, 5));
  try {
    require_legal(ConfigurationContext(a, ops));
    ADD_FAILURE() << "require_legal accepted a double-booked PE";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "illegal configuration context: RSP-S001: "),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------ reference checker
//
// The retired second legality engine, kept verbatim as the agreement
// oracle. It re-checks every constraint with std::map and string-keyed
// unit maps, independently of the analysis passes.
namespace reference {

LegalityReport check_legality(const ConfigurationContext& context) {
  LegalityReport report;
  const arch::Architecture& a = context.architecture();
  const arch::ArraySpec& array = a.array;
  const auto& ops = context.ops();

  auto describe = [&](ProgIndex i) {
    const ScheduledOp& op = ops[static_cast<std::size_t>(i)];
    std::ostringstream os;
    os << "op#" << i << " (" << ir::op_name(op.kind) << " @PE(" << op.pe.row
       << "," << op.pe.col << ") cycle " << op.cycle << ")";
    return os.str();
  };

  // 1 + 6: dataflow timing and routability.
  for (ProgIndex i = 0; i < context.size(); ++i) {
    const ScheduledOp& op = ops[static_cast<std::size_t>(i)];
    for (const ProgOperand& o : op.operands) {
      if (o.is_imm()) continue;
      if (o.producer < 0 || o.producer >= context.size()) {
        report.fail(describe(i) + ": operand index out of range");
        continue;
      }
      const ScheduledOp& prod = ops[static_cast<std::size_t>(o.producer)];
      if (op.cycle < prod.cycle + prod.latency)
        report.fail(describe(i) + " consumes " + describe(o.producer) +
                    " before its result is ready");
      if (array.route(prod.pe, op.pe) == arch::RouteKind::kNone)
        report.fail(describe(i) + " cannot route operand from " +
                    describe(o.producer));
    }
    for (sched::ProgIndex d : op.order_deps) {
      if (d < 0 || d >= context.size()) {
        report.fail(describe(i) + ": order dep index out of range");
        continue;
      }
      const ScheduledOp& prod = ops[static_cast<std::size_t>(d)];
      if (op.cycle < prod.cycle + prod.latency)
        report.fail(describe(i) + " violates memory ordering against " +
                    describe(d));
    }
  }

  // 2: PE exclusivity. A critical (multiplied) op occupies its PE for all
  // `latency` stages; every other op for one cycle.
  std::map<std::pair<int, int>, ProgIndex> pe_cycle;
  for (ProgIndex i = 0; i < context.size(); ++i) {
    const ScheduledOp& op = ops[static_cast<std::size_t>(i)];
    const int occupancy = ir::is_critical_op(op.kind) ? op.latency : 1;
    for (int s = 0; s < occupancy; ++s) {
      auto key = std::make_pair(array.linear(op.pe), op.cycle + s);
      auto [it, inserted] = pe_cycle.emplace(key, i);
      if (!inserted)
        report.fail(describe(i) + " and " + describe(it->second) +
                    " share a PE in the same cycle");
    }
  }

  // 3: bus caps.
  std::map<std::pair<int, int>, int> reads, writes;
  for (const ScheduledOp& op : ops) {
    if (op.kind == ir::OpKind::kLoad) ++reads[{op.pe.row, op.cycle}];
    if (op.kind == ir::OpKind::kStore) ++writes[{op.pe.row, op.cycle}];
  }
  for (const auto& [key, n] : reads)
    if (n > arch::kReadBusesPerRow)
      report.fail("row " + std::to_string(key.first) + " issues " +
                  std::to_string(n) + " loads in cycle " +
                  std::to_string(key.second) + " (cap " +
                  std::to_string(arch::kReadBusesPerRow) + ")");
  for (const auto& [key, n] : writes)
    if (n > arch::kWriteBusesPerRow)
      report.fail("row " + std::to_string(key.first) + " issues " +
                  std::to_string(n) + " stores in cycle " +
                  std::to_string(key.second) + " (cap " +
                  std::to_string(arch::kWriteBusesPerRow) + ")");

  // 4: shared units. 5: latencies.
  std::map<std::pair<std::string, int>, ProgIndex> unit_issue;
  for (ProgIndex i = 0; i < context.size(); ++i) {
    const ScheduledOp& op = ops[static_cast<std::size_t>(i)];
    const bool is_mult = ir::is_critical_op(op.kind);
    const int expected_latency = is_mult ? a.mult_latency() : 1;
    if (op.latency != expected_latency)
      report.fail(describe(i) + " has latency " + std::to_string(op.latency) +
                  ", architecture dictates " +
                  std::to_string(expected_latency));
    if (is_mult && a.shares_multiplier()) {
      if (!op.unit) {
        report.fail(describe(i) + " multiplies without a shared unit");
        continue;
      }
      const auto reachable = a.sharing.reachable_units(array, op.pe);
      if (std::find(reachable.begin(), reachable.end(), *op.unit) ==
          reachable.end())
        report.fail(describe(i) + " uses unreachable unit " +
                    arch::to_string(*op.unit));
      auto key = std::make_pair(arch::to_string(*op.unit), op.cycle);
      auto [it, inserted] = unit_issue.emplace(key, i);
      if (!inserted)
        report.fail("unit " + key.first + " accepts two issues in cycle " +
                    std::to_string(op.cycle) + ": " + describe(i) + " and " +
                    describe(it->second));
    } else if (op.unit) {
      report.fail(describe(i) + " names a shared unit on architecture '" +
                  a.name + "' which shares nothing");
    }
  }

  return report;
}

}  // namespace reference

// ------------------------------------------------------------- agreement

struct Subject {
  std::string name;
  ConfigurationContext context;
};

void add_subjects(const kernels::Workload& w,
                  const std::vector<std::size_t>& arch_indices,
                  std::vector<Subject>& out) {
  const PlacedProgram program =
      LoopPipeliner(w.array).map(w.kernel, w.hints, w.reduction);
  const std::vector<arch::Architecture> suite =
      arch::standard_suite(w.array.rows, w.array.cols);
  for (const std::size_t i : arch_indices)
    out.push_back({w.name + " on " + suite[i].name,
                   ContextScheduler().schedule(program, suite[i])});
}

/// The catalogue × the standard suite, then gen:1..200 on gen::fuzz_one's
/// default rotation (Base, then the sharing designs 1 + seed % 8 and
/// 1 + (seed / 8) % 8). Only the kernels of one shard: catalogue entry k
/// and gen:seed belong to shard k % shards and seed % shards.
std::vector<Subject> subjects(int shard, int shards) {
  std::vector<Subject> out;
  const std::vector<kernels::Workload> catalogue = kernels::full_catalogue();
  for (std::size_t k = 0; k < catalogue.size(); ++k)
    if (static_cast<int>(k % static_cast<std::size_t>(shards)) == shard)
      add_subjects(catalogue[k], {0, 1, 2, 3, 4, 5, 6, 7, 8}, out);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    if (static_cast<int>(seed % static_cast<std::uint64_t>(shards)) != shard)
      continue;
    gen::GeneratorConfig config;
    config.seed = seed;
    std::vector<std::size_t> indices = {0, 1 + seed % 8};
    if (1 + (seed / 8) % 8 != indices[1]) indices.push_back(1 + (seed / 8) % 8);
    add_subjects(gen::generate_workload(config), indices, out);
  }
  return out;
}

/// Whether the reference, analysis::check_legality and the legality read
/// off a full lint agree on `context` (and, when they do, the verdict).
struct Verdict {
  bool agree = true;
  bool ok = true;
  std::string detail;  ///< the three verdicts, when they differ
};

Verdict judge(const ConfigurationContext& context) {
  const bool reference_ok = reference::check_legality(context).ok;
  const LegalityReport engine = check_legality(context);
  const LegalityReport linted =
      analysis::legality_of(analysis::lint_context(context));
  Verdict v;
  v.ok = engine.ok;
  v.agree = engine.ok == reference_ok && linted.ok == engine.ok &&
            linted.violations == engine.violations;
  if (!v.agree)
    v.detail = std::string("reference ") +
               (reference_ok ? "accepts" : "rejects") + ", check_legality " +
               (engine.ok ? "accepts" : "rejects") + ", lint " +
               (linted.ok ? "accepts" : "rejects") +
               (engine.ok ? "" : " (" + engine.violations.front() + ")");
  return v;
}

// The mutation test runs in kShards shards; together they apply
// kMutations seeded mutations to every subject.
constexpr int kShards = 8;
constexpr int kMutations = 16;

TEST(LegalityAgreement, CatalogueAndGeneratedContextsAreLegalToAllThree) {
  const std::vector<Subject> all = subjects(0, 1);
  EXPECT_GE(all.size() * kMutations, 10000u);
  for (const Subject& s : all) {
    const Verdict v = judge(s.context);
    EXPECT_TRUE(v.agree) << s.name << ": " << v.detail;
    EXPECT_TRUE(v.ok) << s.name;
  }
}

TEST(LegalityAgreement, OperandsAnOpDoesNotReadAreNotTimed) {
  // The one difference from the reference kept on purpose
  // (docs/ANALYSIS.md): a load reads no operand, so a producer that has
  // issued but not finished is no dependence of it. The reference timed
  // every operand. Scheduler output never carries such an operand.
  const arch::Architecture a = arch::rsp_architecture(1);
  std::vector<ScheduledOp> ops;
  auto mult = make_op(ir::OpKind::kMult, {0, 0}, 0, a.mult_latency());
  mult.operands = {ProgOperand{}, ProgOperand{}};
  mult.unit = arch::SharedUnitId{arch::SharedUnitId::Pool::kRow, 0, 0};
  ops.push_back(mult);
  auto ld = make_op(ir::OpKind::kLoad, {0, 1}, 1);  // mult done at cycle 2
  ld.operands = {ProgOperand{0, 0}};
  ops.push_back(ld);
  const ConfigurationContext ctx(a, ops);
  EXPECT_TRUE(check_legality(ctx).ok);
  EXPECT_FALSE(reference::check_legality(ctx).ok);
}

/// Applies one seeded single-field mutation to a copy of `context`: an
/// issue cycle ±1, a PE move, a latency ±1, a shared unit dropped, swapped
/// or added, or an extra order dep.
ConfigurationContext mutate(const ConfigurationContext& context,
                            util::Rng& rng) {
  const arch::Architecture& a = context.architecture();
  std::vector<ScheduledOp> ops = context.ops();
  const auto pick = [&](auto&& eligible) -> ScheduledOp* {
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (eligible(ops[i])) candidates.push_back(i);
    if (candidates.empty()) return nullptr;
    return &ops[candidates[static_cast<std::size_t>(rng.uniform(
        0, static_cast<std::int64_t>(candidates.size()) - 1))]];
  };
  const auto any = [](const ScheduledOp&) { return true; };
  const auto random_unit = [&] {
    arch::SharedUnitId u;
    const bool row = rng.uniform(0, 1) == 0;
    u.pool = row ? arch::SharedUnitId::Pool::kRow
                 : arch::SharedUnitId::Pool::kColumn;
    u.line = static_cast<int>(
        rng.uniform(0, (row ? a.array.rows : a.array.cols) - 1));
    const int pool = row ? a.sharing.units_per_row : a.sharing.units_per_col;
    u.index = static_cast<int>(rng.uniform(0, std::max(pool, 1) - 1));
    return u;
  };
  const bool up = rng.uniform(0, 1) == 0;
  const std::int64_t kind = rng.uniform(0, 6);
  switch (kind) {
    case 0: {  // issue cycle ±1
      ScheduledOp& op = *pick(any);
      op.cycle += (up || op.cycle == 0) ? 1 : -1;
      break;
    }
    case 1: {  // PE move inside the array
      ScheduledOp& op = *pick(any);
      op.pe = {static_cast<int>(rng.uniform(0, a.array.rows - 1)),
               static_cast<int>(rng.uniform(0, a.array.cols - 1))};
      break;
    }
    case 2: {  // latency ±1
      ScheduledOp& op = *pick(any);
      op.latency += (up || op.latency == 1) ? 1 : -1;
      break;
    }
    case 3:    // unit drop
    case 4: {  // unit swap
      ScheduledOp* op =
          pick([](const ScheduledOp& o) { return o.unit.has_value(); });
      if (op) {
        if (kind == 3) {
          op->unit.reset();
        } else {
          op->unit = random_unit();
        }
        break;
      }
      [[fallthrough]];  // no op has a unit to drop or swap: add one
    }
    case 5: {  // unit added to an op that has none
      ScheduledOp* op = pick([](const ScheduledOp& o) { return !o.unit; });
      if (op) op->unit = random_unit();
      break;
    }
    default: {  // extra order dep
      ScheduledOp& op = *pick(any);
      op.order_deps.push_back(
          rng.uniform(0, static_cast<std::int64_t>(ops.size()) - 1));
      break;
    }
  }
  return ConfigurationContext(a, std::move(ops));
}

class LegalityMutation : public ::testing::TestWithParam<int> {};

TEST_P(LegalityMutation, SingleFieldMutationsAgreeWithTheReference) {
  const std::vector<Subject> shard = subjects(GetParam(), kShards);
  int checked = 0, rejected = 0, disagreements = 0;
  for (std::size_t i = 0; i < shard.size(); ++i) {
    util::Rng rng(0x1e9a1u + 31u * i + static_cast<unsigned>(GetParam()));
    for (int m = 0; m < kMutations; ++m) {
      const Verdict v = judge(mutate(shard[i].context, rng));
      ++checked;
      if (!v.ok) ++rejected;
      if (!v.agree && ++disagreements <= 5)
        ADD_FAILURE() << shard[i].name << ", mutation " << m << ": "
                      << v.detail;
    }
  }
  EXPECT_EQ(disagreements, 0) << "of " << checked << " mutations";
  // The mutations must exercise the checkers, not only legal neighbours.
  EXPECT_GT(rejected, checked / 4) << "of " << checked << " mutations";
}

INSTANTIATE_TEST_SUITE_P(Shards, LegalityMutation,
                         ::testing::Range(0, kShards));

}  // namespace
}  // namespace rsp::sched
