// Forwarding header: legality checking lives in analysis/verifier.hpp,
// the one legality engine. This header stays only because the frozen
// benchmark sources (perfbench/src/dse_cold.cpp and fuzz_gen.cpp) include
// it; new code includes analysis/verifier.hpp and calls the analysis names.
#pragma once

#include "analysis/verifier.hpp"

namespace rsp::sched {

using analysis::LegalityReport;
using analysis::check_legality;
using analysis::require_legal;

}  // namespace rsp::sched
