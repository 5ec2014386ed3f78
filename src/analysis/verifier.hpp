// Static verifier over placed-and-scheduled programs: the one legality
// engine of the toolchain.
//
// One checking implementation serves three callers:
//   * `lint_*` walk every rule and return a full LintReport — the engine
//     behind `rsp_cli lint`, the v2 protocol `lint` op and the fuzzer.
//   * `verify_context` / `verify_structural` stop at the first violation
//     and throw (InvalidArgumentError for per-op validation rules,
//     rsp::Error for structural-replay rules). `sim::SimProgram::compile`
//     calls them, so a simulator refusal and the corresponding lint
//     finding carry identical messages.
//   * `check_legality` / `require_legal` decide whether scheduler output
//     can run on the array: no error and no finding of kHardwareRules.
//     They run the validation, structural and hardware passes and skip
//     the lint-only warnings.
//
// The dense reference loop in tests/test_sim.cpp keeps its own inline
// checks: it is the independent implementation the simulator's refusals
// are compared against.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "arch/presets.hpp"
#include "sched/context.hpp"

namespace rsp::analysis {

/// Latest cycle an op may end at (issue cycle + latency): twice the
/// scheduler's default `max_cycles` issue bound (2^20), so no toolchain
/// schedule reaches it. A later op is an RSP-V008 error and stays out of
/// the length and the structural replay, which allocates per cycle.
inline constexpr std::int64_t kMaxScheduleLength = std::int64_t{1} << 21;

/// Warnings the simulator tolerates but the array cannot execute: a value
/// read before it exists (W001), an operand with no route (W007), a shared
/// unit the PE's bus switch cannot reach (W008), a memory-order
/// predecessor not yet done (W009), a latency other than the
/// architecture's (W010) and a shared unit named by an op that takes none
/// (W011). docs/ANALYSIS.md explains why each is stricter than the
/// simulator.
inline constexpr std::array<std::string_view, 6> kHardwareRules = {
    "RSP-W001", "RSP-W007", "RSP-W008", "RSP-W009", "RSP-W010", "RSP-W011"};

/// True when a finding makes a context illegal for the hardware: any
/// error, or a finding of one of kHardwareRules.
bool blocks_hardware(Severity severity, std::string_view rule);

/// Whether a configuration context can run on the array, with every
/// blocking finding as "RSP-xxxx: message" in discovery order.
struct LegalityReport {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }
};

/// Legality read off a full lint report (the findings blocks_hardware
/// selects). Equals check_legality on the same context.
LegalityReport legality_of(const LintReport& report);

/// Full lint of a raw schedule that may not even construct a
/// ConfigurationContext (negative cycles, zero latencies). Emits the
/// context constructor's messages for those, then every context rule.
LintReport lint_schedule(const arch::Architecture& architecture,
                         const std::vector<sched::ScheduledOp>& ops);

/// Full lint of a constructed (hence cycle/latency-sane) context.
LintReport lint_context(const sched::ConfigurationContext& context);

/// The validation, structural and hardware passes over `context`: every
/// error and every kHardwareRules finding, and nothing else.
LegalityReport check_legality(const sched::ConfigurationContext& context);

/// Throws rsp::Error naming the first violation if the context is illegal.
void require_legal(const sched::ConfigurationContext& context);

/// Per-op validation rules (RSP-V*) in op-index order; throws
/// InvalidArgumentError with the first violation's message. This is the
/// simulator's entry-point check.
void verify_context(const sched::ConfigurationContext& context);

/// Structural-replay rules (RSP-S*) in issue order (cycle asc, op index
/// asc); throws rsp::Error with the first violation's message. Call only
/// after `verify_context` passed — the replay indexes arrays with the
/// bounds that pass established. This is the check half of
/// `sim::SimProgram::compile`.
void verify_structural(const sched::ConfigurationContext& context);

}  // namespace rsp::analysis
