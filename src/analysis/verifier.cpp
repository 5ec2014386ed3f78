#include "analysis/verifier.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ir/op.hpp"
#include "util/error.hpp"

namespace rsp::analysis {

const char* severity_name(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

int LintReport::error_count() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::kError) ++n;
  return n;
}

bool blocks_hardware(Severity severity, std::string_view rule) {
  return severity == Severity::kError ||
         std::find(kHardwareRules.begin(), kHardwareRules.end(), rule) !=
             kHardwareRules.end();
}

LegalityReport legality_of(const LintReport& report) {
  LegalityReport legality;
  for (const Diagnostic& d : report.diagnostics)
    if (blocks_hardware(d.severity, d.rule))
      legality.fail(d.rule + ": " + d.message);
  return legality;
}

int LintReport::warning_count() const {
  return static_cast<int>(diagnostics.size()) - error_count();
}

util::Json LintReport::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("errors", static_cast<double>(error_count()));
  doc.set("warnings", static_cast<double>(warning_count()));
  util::Json list = util::Json::array();
  for (const Diagnostic& d : diagnostics) {
    util::Json entry = util::Json::object();
    entry.set("rule", d.rule);
    entry.set("severity", severity_name(d.severity));
    if (d.locus.op >= 0) entry.set("op", static_cast<double>(d.locus.op));
    if (d.locus.cycle >= 0)
      entry.set("cycle", static_cast<double>(d.locus.cycle));
    if (d.locus.pe_row >= 0 && d.locus.pe_col >= 0) {
      util::Json pe = util::Json::array();
      pe.push(static_cast<double>(d.locus.pe_row));
      pe.push(static_cast<double>(d.locus.pe_col));
      entry.set("pe", std::move(pe));
    }
    entry.set("message", d.message);
    entry.set("hint", d.hint);
    list.push(std::move(entry));
  }
  doc.set("diagnostics", std::move(list));
  return doc;
}

namespace {

struct Finding {
  const char* rule;
  Severity severity;
  Locus locus;
  std::string message;
};

using EmitFn = std::function<void(Finding)>;

/// One-line fix hint per rule id (docs/ANALYSIS.md mirrors this table).
const char* hint_for(const std::string& rule) {
  if (rule == "RSP-V001") return "issue cycles must lie in [0, length)";
  if (rule == "RSP-V002") return "every op occupies at least one cycle";
  if (rule == "RSP-V003") return "place the op on a PE inside the array";
  if (rule == "RSP-V004")
    return "operand producers must index an op of this program";
  if (rule == "RSP-V005") return "give the store a value operand";
  if (rule == "RSP-V006")
    return "shared-unit line/index must fit the architecture's pools";
  if (rule == "RSP-V007")
    return "order deps must index an op of this program";
  if (rule == "RSP-V008")
    return "an op must end (issue cycle + latency) within 2^21 cycles";
  if (rule == "RSP-S001")
    return "a PE issues one op per cycle and blocks for every stage of a "
           "multi-cycle op";
  if (rule == "RSP-S002")
    return "stagger the loads: a row has read_buses_per_row load slots per "
           "cycle";
  if (rule == "RSP-S003")
    return "stagger the stores: a row has write_buses_per_row store slots "
           "per cycle";
  if (rule == "RSP-S004")
    return "on a resource-shared architecture every critical op needs a "
           "shared-unit assignment";
  if (rule == "RSP-S005")
    return "a shared unit accepts one issue per cycle; pick another unit or "
           "cycle";
  if (rule == "RSP-S006")
    return "delay the consumer until producer cycle + latency";
  if (rule == "RSP-W001")
    return "the consumer reads the producer's initial 0; issue the producer "
           "earlier if the value is meant to flow";
  if (rule == "RSP-W002") return "drop the op or route its value somewhere";
  if (rule == "RSP-W003")
    return "loop-carried values must flow from earlier iterations to later "
           "ones";
  if (rule == "RSP-W004")
    return "the last store in index order wins; merge or reorder the stores";
  if (rule == "RSP-W005")
    return "same-cycle load/store on one address depends on issue order; "
           "separate them by a cycle";
  if (rule == "RSP-W006")
    return "no unit assignment can serve this many critical issues in one "
           "cycle; lower the per-cycle pressure or add shared units";
  if (rule == "RSP-W007")
    return "producer and consumer PEs need a same-PE/neighbour/row/column "
           "link; move one of them or insert a route op";
  if (rule == "RSP-W008")
    return "a PE reaches only its own row pool and column pool; pick a unit "
           "on the op's row or column";
  if (rule == "RSP-W009")
    return "delay the op until its memory-order predecessor's cycle + "
           "latency";
  if (rule == "RSP-W010")
    return "a critical op takes the architecture's multiplier latency, "
           "every other op one cycle";
  if (rule == "RSP-W011")
    return "drop the unit: only critical ops on a resource-shared "
           "architecture use one";
  return "";
}

// Dense integer slot of a shared unit: row pools first (rows ×
// units_per_row, row-major), then column pools. Callers bounds-check
// line/index first, so the slot is in [0, sharing.total_units(array)).
int unit_slot(const arch::SharingPlan& sharing, const arch::ArraySpec& array,
              const arch::SharedUnitId& unit) {
  if (unit.pool == arch::SharedUnitId::Pool::kRow)
    return unit.line * sharing.units_per_row + unit.index;
  return array.rows * sharing.units_per_row +
         unit.line * sharing.units_per_col + unit.index;
}

bool unit_in_pools(const arch::Architecture& a, const arch::SharedUnitId& u) {
  const bool row_pool = u.pool == arch::SharedUnitId::Pool::kRow;
  const int lines = row_pool ? a.array.rows : a.array.cols;
  const int pool_size =
      row_pool ? a.sharing.units_per_row : a.sharing.units_per_col;
  return u.line >= 0 && u.line < lines && u.index >= 0 && u.index < pool_size;
}

Locus locus_of(std::size_t i, const sched::ScheduledOp& op) {
  return Locus{static_cast<int>(i), op.cycle, op.pe.row, op.pe.col};
}

/// Per-op validation rules, op-index order, with each op's checks in the
/// exact order `sim::validate_context` historically ran them. When
/// `pre_construction` is set the cycle/latency rules use the
/// ConfigurationContext constructor's messages instead (those inputs never
/// reach validate_context: the constructor rejects them first).
/// `skip_replay[i]` is set when op i cannot safely take part in the
/// structural replay (bad cycle, latency or placement).
void validation_pass(const arch::Architecture& a,
                     const std::vector<sched::ScheduledOp>& ops, int length,
                     bool pre_construction, const EmitFn& emit,
                     std::vector<char>& skip_replay) {
  const auto size = static_cast<sched::ProgIndex>(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const sched::ScheduledOp& op = ops[i];
    // In 64 bits: a schedule document may carry any int cycle and latency.
    const std::int64_t end = std::int64_t{op.cycle} + op.latency;
    if (op.cycle >= 0 && op.latency >= 1 && end > kMaxScheduleLength) {
      skip_replay[i] = 1;
      emit({"RSP-V008", Severity::kError, locus_of(i, op),
            "simulator: op " + std::to_string(i) + " ends at cycle " +
                std::to_string(end) + ", past the " +
                std::to_string(kMaxScheduleLength) +
                "-cycle bound on schedules"});
    } else if (op.cycle < 0 || op.cycle >= length) {
      skip_replay[i] = 1;
      const std::string message =
          pre_construction && op.cycle < 0
              ? "op " + std::to_string(i) + " has negative issue cycle " +
                    std::to_string(op.cycle)
              : "simulator: op " + std::to_string(i) + " issue cycle " +
                    std::to_string(op.cycle) + " out of range [0, " +
                    std::to_string(length) + ")";
      emit({"RSP-V001", Severity::kError, locus_of(i, op), message});
    }
    if (op.latency < 1) {
      skip_replay[i] = 1;
      const std::string message =
          pre_construction
              ? "op " + std::to_string(i) + " has latency " +
                    std::to_string(op.latency) + "; latency must be >= 1"
              : "simulator: op " + std::to_string(i) + " latency " +
                    std::to_string(op.latency) + " must be >= 1";
      emit({"RSP-V002", Severity::kError, locus_of(i, op), message});
    }
    if (!a.array.contains(op.pe)) {
      skip_replay[i] = 1;
      emit({"RSP-V003", Severity::kError, locus_of(i, op),
            "simulator: op " + std::to_string(i) + " placed on PE (" +
                std::to_string(op.pe.row) + ", " + std::to_string(op.pe.col) +
                ") outside the " + std::to_string(a.array.rows) + "x" +
                std::to_string(a.array.cols) + " array"});
    }
    for (const sched::ProgOperand& o : op.operands)
      if (!o.is_imm() && (o.producer < 0 || o.producer >= size))
        emit({"RSP-V004", Severity::kError, locus_of(i, op),
              "simulator: op " + std::to_string(i) +
                  " operand references producer " +
                  std::to_string(o.producer) + " out of range [0, " +
                  std::to_string(size) + ")"});
    for (const sched::ProgIndex d : op.order_deps)
      if (d < 0 || d >= size)
        emit({"RSP-V007", Severity::kError, locus_of(i, op),
              "simulator: op " + std::to_string(i) +
                  " order dep references op " + std::to_string(d) +
                  " out of range [0, " + std::to_string(size) + ")"});
    if (op.kind == ir::OpKind::kStore && op.operands.empty())
      emit({"RSP-V005", Severity::kError, locus_of(i, op),
            "simulator: store op " + std::to_string(i) +
                " has no value operand"});
    if (ir::is_critical_op(op.kind) && a.shares_multiplier() && op.unit &&
        !unit_in_pools(a, *op.unit))
      emit({"RSP-V006", Severity::kError, locus_of(i, op),
            "simulator: op " + std::to_string(i) + " names shared unit " +
                arch::to_string(*op.unit) +
                " outside the architecture's pools"});
  }
}

/// Structural-replay rules in issue order (cycle asc, op index asc),
/// message-identical to `sim::SimProgram::compile`'s replay. In full-report
/// mode (`skip_replay` from a failed validation pass) ops that cannot be
/// replayed are left out and findings accumulate; in verify mode the emit
/// callback throws at the first finding, reproducing compile's
/// stop-at-first-error behaviour exactly.
void structural_pass(const arch::Architecture& a,
                     const std::vector<sched::ScheduledOp>& ops, int length,
                     const EmitFn& emit,
                     const std::vector<char>& skip_replay) {
  const arch::ArraySpec& array = a.array;
  const auto n = ops.size();
  // Every replayed op ends by kMaxScheduleLength (RSP-V008 skips the
  // rest), so a longer context replays no further.
  length = static_cast<int>(
      std::min<std::int64_t>(std::max(length, 0), kMaxScheduleLength));
  // Issue order as one counting sort over two flat arrays: the ops issued
  // at cycle t are issue[start[t] .. start[t + 1]), ascending by index.
  const auto cycles = static_cast<std::size_t>(length);
  std::vector<std::size_t> start(cycles + 2, 0);
  for (std::size_t i = 0; i < n; ++i)
    if (!skip_replay[i]) ++start[static_cast<std::size_t>(ops[i].cycle) + 2];
  for (std::size_t t = 2; t < start.size(); ++t) start[t] += start[t - 1];
  std::vector<std::size_t> issue(start.back());
  for (std::size_t i = 0; i < n; ++i)
    if (!skip_replay[i])
      issue[start[static_cast<std::size_t>(ops[i].cycle) + 1]++] = i;

  const int total_units = a.sharing.total_units(array);
  std::vector<int> pe_busy_until(static_cast<std::size_t>(array.num_pes()),
                                 0);
  std::vector<int> ready_at(n, 0);
  std::vector<int> row_reads(static_cast<std::size_t>(array.rows), 0);
  std::vector<int> row_writes(static_cast<std::size_t>(array.rows), 0);
  std::vector<char> unit_taken(static_cast<std::size_t>(total_units), 0);

  for (int t = 0; t < length; ++t) {
    const std::size_t first = start[static_cast<std::size_t>(t)];
    const std::size_t last = start[static_cast<std::size_t>(t) + 1];
    if (first == last) continue;
    std::fill(row_reads.begin(), row_reads.end(), 0);
    std::fill(row_writes.begin(), row_writes.end(), 0);
    std::fill(unit_taken.begin(), unit_taken.end(), 0);

    for (std::size_t k = first; k < last; ++k) {
      const std::size_t i = issue[k];
      const sched::ScheduledOp& op = ops[i];

      const int pe = array.linear(op.pe);
      if (pe_busy_until[static_cast<std::size_t>(pe)] > t)
        emit({"RSP-S001", Severity::kError, locus_of(i, op),
              "simulator: PE double-booked at cycle " + std::to_string(t)});
      pe_busy_until[static_cast<std::size_t>(pe)] =
          t + (ir::is_critical_op(op.kind) ? op.latency : 1);

      const auto require_ready = [&](const sched::ProgOperand& o) {
        if (o.is_imm()) return;
        if (o.producer < 0 || o.producer >= static_cast<sched::ProgIndex>(n))
          return;  // RSP-V004 already reported the dangling producer
        if (ready_at[static_cast<std::size_t>(o.producer)] > t)
          emit({"RSP-S006", Severity::kError, locus_of(i, op),
                "simulator: operand consumed before ready at cycle " +
                    std::to_string(t)});
      };

      switch (op.kind) {
        case ir::OpKind::kLoad:
          if (++row_reads[static_cast<std::size_t>(op.pe.row)] >
              array.read_buses_per_row)
            emit({"RSP-S002", Severity::kError, locus_of(i, op),
                  "simulator: read-bus oversubscribed on row " +
                      std::to_string(op.pe.row) + " at cycle " +
                      std::to_string(t)});
          break;
        case ir::OpKind::kStore:
          if (++row_writes[static_cast<std::size_t>(op.pe.row)] >
              array.write_buses_per_row)
            emit({"RSP-S003", Severity::kError, locus_of(i, op),
                  "simulator: write-bus oversubscribed on row " +
                      std::to_string(op.pe.row) + " at cycle " +
                      std::to_string(t)});
          if (!op.operands.empty()) require_ready(op.operands[0]);
          break;
        case ir::OpKind::kNop:
          break;
        default: {
          if (ir::is_critical_op(op.kind) && a.shares_multiplier()) {
            if (!op.unit) {
              emit({"RSP-S004", Severity::kError, locus_of(i, op),
                    "simulator: shared multiply without a unit"});
            } else if (unit_in_pools(a, *op.unit)) {
              const int unit = unit_slot(a.sharing, array, *op.unit);
              if (unit_taken[static_cast<std::size_t>(unit)])
                emit({"RSP-S005", Severity::kError, locus_of(i, op),
                      "simulator: unit " + arch::to_string(*op.unit) +
                          " double-issued at cycle " + std::to_string(t)});
              unit_taken[static_cast<std::size_t>(unit)] = 1;
            }
          }
          if (!op.operands.empty()) require_ready(op.operands[0]);
          if (op.operands.size() > 1) require_ready(op.operands[1]);
          break;
        }
      }
      ready_at[i] = t + op.latency;
    }
  }
}

/// Warning rules: everything here is simulator-legal (the simulator accepts
/// the context and produces deterministic values). The hardware rules
/// (kHardwareRules: W001, W007–W011) flag what the array cannot execute and
/// always run. The lint-only rules (W002–W006) flag what is almost
/// certainly not what the schedule's author meant; they run only when
/// `lint_rules` is set.
void warning_pass(const arch::Architecture& a,
                  const std::vector<sched::ScheduledOp>& ops,
                  const EmitFn& emit, const std::vector<char>& skip_replay,
                  bool lint_rules) {
  const arch::ArraySpec& array = a.array;
  const auto n = ops.size();
  const auto size = static_cast<sched::ProgIndex>(n);
  const auto producer_ok = [&](const sched::ProgOperand& o) {
    return !o.is_imm() && o.producer >= 0 && o.producer < size;
  };

  std::vector<char> consumed(lint_rules ? n : 0, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const sched::ScheduledOp& op = ops[i];
    for (const sched::ProgOperand& o : op.operands) {
      if (!producer_ok(o)) continue;
      const auto p = static_cast<std::size_t>(o.producer);
      const sched::ScheduledOp& prod = ops[p];
      // RSP-W001: the producer issues at (or after) the consumer's slot in
      // replay order, so the consumer silently reads the initial 0 — the
      // silent twin of the RSP-S006 error (producer issued, result not
      // ready yet).
      if (prod.cycle > op.cycle || (prod.cycle == op.cycle && p >= i))
        emit({"RSP-W001", Severity::kWarning, locus_of(i, op),
              "op " + std::to_string(i) + " consumes producer " +
                  std::to_string(p) + " which issues at cycle " +
                  std::to_string(prod.cycle) + ", not before cycle " +
                  std::to_string(op.cycle) +
                  "; the consumer reads the initial 0"});
      if (lint_rules) {
        consumed[p] = 1;
        // RSP-W003: a loop-carried value flowing backwards in iteration
        // space.
        if (prod.iter >= 0 && op.iter >= 0 && prod.iter > op.iter)
          emit({"RSP-W003", Severity::kWarning, locus_of(i, op),
                "op " + std::to_string(i) + " (iteration " +
                    std::to_string(op.iter) + ") consumes producer " +
                    std::to_string(p) + " from later iteration " +
                    std::to_string(prod.iter)});
      }
      // RSP-W007: the operand has no single-hop route in the interconnect.
      // The simulator moves values by index and never checks this.
      if (!skip_replay[i] && !skip_replay[p] &&
          array.route(prod.pe, op.pe) == arch::RouteKind::kNone)
        emit({"RSP-W007", Severity::kWarning, locus_of(i, op),
              "op " + std::to_string(i) + " cannot receive its operand: no "
                  "single-hop route from producer " + std::to_string(p) +
                  " at PE (" + std::to_string(prod.pe.row) + ", " +
                  std::to_string(prod.pe.col) + ") to PE (" +
                  std::to_string(op.pe.row) + ", " +
                  std::to_string(op.pe.col) + ")"});
    }
    const bool takes_unit =
        ir::is_critical_op(op.kind) && a.shares_multiplier();
    // RSP-W008: a unit that exists but sits on a row/column pool the PE's
    // bus switch does not reach (again simulator-legal: the simulator
    // indexes units globally).
    if (!skip_replay[i] && takes_unit && op.unit &&
        unit_in_pools(a, *op.unit)) {
      const auto reachable = a.sharing.reachable_units(array, op.pe);
      if (std::find(reachable.begin(), reachable.end(), *op.unit) ==
          reachable.end())
        emit({"RSP-W008", Severity::kWarning, locus_of(i, op),
              "op " + std::to_string(i) + " names shared unit " +
                  arch::to_string(*op.unit) + " unreachable from PE (" +
                  std::to_string(op.pe.row) + ", " +
                  std::to_string(op.pe.col) + ")"});
    }
    // RSP-W009: a memory-order predecessor (RAW/WAR/WAW through data
    // memory) has not completed when the op issues. The simulator applies
    // memory ops in issue order and never reads order_deps.
    for (const sched::ProgIndex d : op.order_deps) {
      if (d < 0 || d >= size) continue;  // RSP-V007
      const sched::ScheduledOp& pred = ops[static_cast<std::size_t>(d)];
      const std::int64_t done =
          static_cast<std::int64_t>(pred.cycle) + pred.latency;
      if (op.cycle < done)
        emit({"RSP-W009", Severity::kWarning, locus_of(i, op),
              "op " + std::to_string(i) + " issues at cycle " +
                  std::to_string(op.cycle) + " before its memory-order "
                  "predecessor " + std::to_string(d) + " completes at cycle " +
                  std::to_string(done)});
    }
    // RSP-W010: the simulator times values by each op's own latency; the
    // array's timing is fixed by the architecture.
    const int expected_latency =
        ir::is_critical_op(op.kind) ? a.mult_latency() : 1;
    if (op.latency >= 1 && op.latency != expected_latency)
      emit({"RSP-W010", Severity::kWarning, locus_of(i, op),
            "op " + std::to_string(i) + " (" + ir::op_name(op.kind) +
                ") has latency " + std::to_string(op.latency) +
                " but architecture '" + a.name + "' dictates " +
                std::to_string(expected_latency)});
    // RSP-W011: a unit on an op that takes none; the simulator ignores it.
    if (op.unit && !takes_unit)
      emit({"RSP-W011", Severity::kWarning, locus_of(i, op),
            "op " + std::to_string(i) + " (" + ir::op_name(op.kind) +
                ") names shared unit " + arch::to_string(*op.unit) +
                (ir::is_critical_op(op.kind)
                     ? " on architecture '" + a.name +
                           "', which shares nothing"
                     : ", but only critical ops take one")});
  }
  if (!lint_rules) return;

  // RSP-W002: dead values.
  for (std::size_t i = 0; i < n; ++i)
    if (ir::produces_value(ops[i].kind) && !consumed[i])
      emit({"RSP-W002", Severity::kWarning, locus_of(i, ops[i]),
            "op " + std::to_string(i) + " (" + ir::op_name(ops[i].kind) +
                ") computes a value no other op consumes"});

  // RSP-W004/W005: same-cycle conflicts on one memory port
  // (array, address). The simulator resolves both deterministically in issue
  // order, but the outcome depends on that order, not the dataflow.
  // Ports are reported by cycle, array name, then address: one flat table
  // of (cycle, name rank, address, op), sorted once, where a name's rank
  // is its place among the context's distinct array names.
  std::unordered_map<std::string_view, int> name_ids;
  std::vector<std::string_view> names;  // distinct, in order of first use
  struct PortUse {
    int cycle;
    int name;  // index into `names`, then the name's rank
    long address;
    std::size_t op;
    bool operator<(const PortUse& o) const {
      return std::tie(cycle, name, address, op) <
             std::tie(o.cycle, o.name, o.address, o.op);
    }
  };
  std::vector<PortUse> uses;
  for (std::size_t i = 0; i < n; ++i) {
    const sched::ScheduledOp& op = ops[i];
    if (!ir::is_memory_op(op.kind) || skip_replay[i]) continue;
    const auto [id, fresh] =
        name_ids.try_emplace(op.array, static_cast<int>(names.size()));
    if (fresh) names.push_back(op.array);
    uses.push_back({op.cycle, id->second, static_cast<long>(op.address), i});
  }
  std::vector<std::string_view> by_rank = names;
  std::sort(by_rank.begin(), by_rank.end());
  std::vector<int> rank(names.size());
  for (std::size_t k = 0; k < names.size(); ++k)
    rank[k] = static_cast<int>(
        std::lower_bound(by_rank.begin(), by_rank.end(), names[k]) -
        by_rank.begin());
  for (PortUse& use : uses) use.name = rank[static_cast<std::size_t>(use.name)];
  std::sort(uses.begin(), uses.end());
  for (std::size_t first = 0, last = 0; first < uses.size(); first = last) {
    const PortUse& port = uses[first];
    // The port's ops are uses[first, last), ascending by index.
    std::size_t loads = 0, stores = 0, first_load = 0, first_store = 0,
                second_store = 0;
    for (last = first; last < uses.size() && uses[last].cycle == port.cycle &&
                       uses[last].name == port.name &&
                       uses[last].address == port.address;
         ++last) {
      const std::size_t i = uses[last].op;
      if (ops[i].kind == ir::OpKind::kLoad) {
        if (loads++ == 0) first_load = i;
      } else if (stores++ == 0) {
        first_store = i;
      } else if (stores == 2) {
        second_store = i;
      }
    }
    const std::string name(by_rank[static_cast<std::size_t>(port.name)]);
    if (stores > 1)
      emit({"RSP-W004", Severity::kWarning,
            locus_of(second_store, ops[second_store]),
            "array '" + name + "'[" + std::to_string(port.address) +
                "] is stored " + std::to_string(stores) + " times in cycle " +
                std::to_string(port.cycle)});
    if (stores > 0 && loads > 0)
      emit({"RSP-W005", Severity::kWarning,
            locus_of(first_load, ops[first_load]),
            "array '" + name + "'[" + std::to_string(port.address) +
                "] is both loaded (op " + std::to_string(first_load) +
                ") and stored (op " + std::to_string(first_store) +
                ") in cycle " + std::to_string(port.cycle)});
  }

  // RSP-W006: aggregate shared-pool over-subscription — more critical
  // issues in one cycle than physical units exist, so no unit assignment
  // can ever legalise the cycle.
  if (a.shares_multiplier()) {
    const int total_units = a.sharing.total_units(array);
    std::vector<int> critical_per_cycle;
    for (std::size_t i = 0; i < n; ++i) {
      if (skip_replay[i] || !ir::is_critical_op(ops[i].kind)) continue;
      const auto cycle = static_cast<std::size_t>(ops[i].cycle);
      if (cycle >= critical_per_cycle.size())
        critical_per_cycle.resize(cycle + 1, 0);
      ++critical_per_cycle[cycle];
    }
    for (std::size_t cycle = 0; cycle < critical_per_cycle.size(); ++cycle)
      if (critical_per_cycle[cycle] > total_units)
        emit({"RSP-W006", Severity::kWarning,
              Locus{-1, static_cast<int>(cycle), -1, -1},
              "cycle " + std::to_string(cycle) + " issues " +
                  std::to_string(critical_per_cycle[cycle]) +
                  " critical ops but the architecture has only " +
                  std::to_string(total_units) + " shared units"});
  }
}

/// The three passes in discovery order. Ops that fail validation are
/// left out of the replay and of the placement-dependent warnings.
void run_passes(const arch::Architecture& a,
                const std::vector<sched::ScheduledOp>& ops, int length,
                bool pre_construction, bool lint_rules, const EmitFn& emit) {
  std::vector<char> skip_replay(ops.size(), 0);
  validation_pass(a, ops, length, pre_construction, emit, skip_replay);
  structural_pass(a, ops, length, emit, skip_replay);
  warning_pass(a, ops, emit, skip_replay, lint_rules);
}

LintReport lint_impl(const arch::Architecture& a,
                     const std::vector<sched::ScheduledOp>& ops, int length,
                     bool pre_construction) {
  LintReport report;
  const EmitFn collect = [&report](Finding f) {
    report.diagnostics.push_back(Diagnostic{
        f.rule, f.severity, f.locus, std::move(f.message), hint_for(f.rule)});
  };
  run_passes(a, ops, length, pre_construction, /*lint_rules=*/true, collect);
  return report;
}

}  // namespace

LintReport lint_schedule(const arch::Architecture& architecture,
                         const std::vector<sched::ScheduledOp>& ops) {
  architecture.validate();
  // The length the ConfigurationContext constructor would compute, over the
  // ops it would accept; rejected ops (RSP-V001/V002/V008) are diagnosed,
  // not measured.
  int length = 0;
  for (const sched::ScheduledOp& op : ops) {
    const std::int64_t end = std::int64_t{op.cycle} + op.latency;
    if (op.cycle >= 0 && op.latency >= 1 && end <= kMaxScheduleLength)
      length = std::max(length, static_cast<int>(end));
  }
  return lint_impl(architecture, ops, length, /*pre_construction=*/true);
}

LintReport lint_context(const sched::ConfigurationContext& context) {
  return lint_impl(context.architecture(), context.ops(), context.length(),
                   /*pre_construction=*/false);
}

LegalityReport check_legality(const sched::ConfigurationContext& context) {
  LegalityReport legality;
  const EmitFn collect = [&legality](Finding f) {
    if (blocks_hardware(f.severity, f.rule))
      legality.fail(std::string(f.rule) + ": " + f.message);
  };
  run_passes(context.architecture(), context.ops(), context.length(),
             /*pre_construction=*/false, /*lint_rules=*/false, collect);
  return legality;
}

void require_legal(const sched::ConfigurationContext& context) {
  const LegalityReport legality = check_legality(context);
  if (!legality.ok)
    throw Error("illegal configuration context: " +
                legality.violations.front() +
                (legality.violations.size() > 1
                     ? " (+" + std::to_string(legality.violations.size() - 1) +
                           " more)"
                     : ""));
}

void verify_context(const sched::ConfigurationContext& context) {
  const EmitFn raise = [](Finding f) {
    throw InvalidArgumentError(f.message);
  };
  std::vector<char> skip_replay(context.ops().size(), 0);
  validation_pass(context.architecture(), context.ops(), context.length(),
                  /*pre_construction=*/false, raise, skip_replay);
}

void verify_structural(const sched::ConfigurationContext& context) {
  const EmitFn raise = [](Finding f) { throw Error(f.message); };
  const std::vector<char> skip_replay(context.ops().size(), 0);
  structural_pass(context.architecture(), context.ops(), context.length(),
                  raise, skip_replay);
}

}  // namespace rsp::analysis
