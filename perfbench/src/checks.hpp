// Output checks: every operation's result is compared against a reference
// computed independently during set-up, and any difference is a failure.
#pragma once

#include <cstdint>
#include <string>

#include "dse/explorer.hpp"

namespace perfbench {

/// Empty when `got` is bit-identical to `want` (every field of every
/// candidate, doubles compared exactly); otherwise names the first
/// difference.
std::string exploration_diff(const rsp::dse::ExplorationResult& got,
                             const rsp::dse::ExplorationResult& want);

/// Empty when the pinned paper-domain file (selected design, Pareto set
/// with exact cycles and stalls, base cycles) matches `result`.
std::string paper_golden_diff(const rsp::dse::ExplorationResult& result,
                              const std::string& golden_path);

/// Checks one serve response line. For a catalogue request `expected_body`
/// is the serial reference Service::handle body and the line must be its v2
/// envelope byte for byte; for a fresh gen: eval (`expected_body` null) the
/// response must be ok:true with nine rows. Empty when the line passes.
std::string serve_response_diff(const std::string& line, std::int64_t id,
                                const std::string* expected_body);

}  // namespace perfbench
