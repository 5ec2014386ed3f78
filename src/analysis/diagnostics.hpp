// Structured diagnostics for the static verification layer.
//
// A Diagnostic is one finding of the schedule/program linter: a stable rule
// id (RSP-Vnnn validation, RSP-Snnn structural, RSP-Wnnn warning), a
// severity, the locus it anchors to (op index, issue cycle, PE), the exact
// message — for error rules, byte-identical to the exception the simulator
// raises on the same input — and a short fix hint. docs/ANALYSIS.md holds
// the full rule catalogue.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace rsp::analysis {

enum class Severity {
  kError,    // the simulator rejects this context (exception on compile/run)
  kWarning,  // simulator-legal: beyond the array (verifier.hpp's
             // kHardwareRules) or suspicious (silent zeros, dead work, ...)
};

const char* severity_name(Severity severity);

/// Where a finding anchors. -1 in any field means "not specific to one".
struct Locus {
  int op = -1;      ///< op index in the scheduled program
  int cycle = -1;   ///< issue cycle
  int pe_row = -1;  ///< PE placement, when the op has one
  int pe_col = -1;

  bool operator==(const Locus&) const = default;
};

struct Diagnostic {
  std::string rule;     ///< stable id, e.g. "RSP-S001"
  Severity severity = Severity::kError;
  Locus locus;
  /// For error rules this is the exact text of the exception
  /// `sim::SimProgram::compile` throws on the same context.
  std::string message;
  std::string hint;  ///< one-line suggested fix

  bool operator==(const Diagnostic&) const = default;
};

/// The linter's result: every finding, in discovery order (validation pass
/// in op-index order, then the structural replay in issue order, then the
/// warning passes).
struct LintReport {
  std::vector<Diagnostic> diagnostics;

  int error_count() const;
  int warning_count() const;
  /// Clean = no error-severity findings: the simulator accepts the
  /// context. Legality for the array is stricter (analysis::legality_of).
  bool clean() const { return error_count() == 0; }

  /// {"errors": N, "warnings": N, "diagnostics": [{"rule", "severity",
  ///  "op", "cycle", "pe", "message", "hint"}, ...]}. Loci fields that are
  /// -1 are omitted; round-trips through util::Json::parse.
  util::Json to_json() const;
};

}  // namespace rsp::analysis
