// Batched multi-config simulation on the shared worker pool.
//
// The simulator's split between compiling a context (sim::SimProgram) and
// running it makes simulation embarrassingly parallel across memories:
// one immutable compiled program is shared read-only by every worker while
// each task owns its private ir::Memory. `simulate_batch` exploits exactly
// that — one context, many memories; `simulate_many` is the transpose —
// many contexts, one memory snapshot each — compiling each context inside
// its own task.
//
// Both fan out over a runtime::ThreadPool (PR 2); pass `options.pool` to
// run on an existing pool (api::Service submits onto its evaluation
// workers) or leave it null to spin up a scoped pool of `options.threads`.
// Results are returned positionally and are bit-identical to running the
// jobs serially with sim::Machine.
#pragma once

#include <vector>

#include "ir/interp.hpp"
#include "sched/context.hpp"
#include "sim/machine.hpp"
#include "runtime/thread_pool.hpp"

namespace rsp::runtime {

struct SimBatchOptions {
  /// Workers for the internally created pool; 0 = hardware count.
  /// Ignored when `pool` is set.
  int threads = 0;
  /// Run on this pool instead of creating one. The caller keeps ownership;
  /// the pool must outlive the call.
  ThreadPool* pool = nullptr;
  ir::DatapathMode mode = ir::DatapathMode::kExact;
};

/// One simulation outcome: the SimResult plus the final memory image.
struct SimBatchResult {
  sim::SimResult result;
  ir::Memory memory;
};

/// Runs one context against every memory in `memories` (each job starts
/// from its own element and mutates only its private copy). Results are
/// positional. The context is compiled once and the program shared across
/// workers. Throws any rsp::Error the simulation raises (an illegal context
/// fails before any job runs; otherwise the first failing job by position
/// wins).
std::vector<SimBatchResult> simulate_batch(
    const sched::ConfigurationContext& context,
    std::vector<ir::Memory> memories, const SimBatchOptions& options = {});

/// Runs `contexts[i]` against `memories[i]` for every i. Context pointers
/// must be non-null and outlive the call. Sizes must match.
std::vector<SimBatchResult> simulate_many(
    const std::vector<const sched::ConfigurationContext*>& contexts,
    std::vector<ir::Memory> memories, const SimBatchOptions& options = {});

}  // namespace rsp::runtime
