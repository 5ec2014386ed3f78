// Parallel drivers for the expensive stages of the Fig. 7 flow:
//
//   * steps 1–4 (prepare_parallel): the initial per-kernel mapping and
//     base scheduling fan out one task per kernel — memoized through the
//     MappingCache so repeated domains skip remapping entirely — and the
//     parameter-grid estimation (steps 2–3) fans out in chunks over the
//     enumerated DesignPoints; the Pareto filter (step 4) runs after the
//     join in serial enumeration order;
//   * step 5 (evaluate_pareto_exact): exact rescheduling of every Pareto
//     survivor on every kernel, one task per (survivor, kernel) pair,
//     memoized through the EvalCache;
//   * core::RspEvaluator::evaluate_suite, fanned out one task per
//     architecture.
//
// Results are **bit-identical** to the serial paths: every task runs the
// exact serial loop body (the dse::Explorer stage helpers and the same
// deterministic scheduler) on an independent slice, and all reductions
// (base-cycle sums, candidate order, the Pareto filter, per-candidate
// cycle sums, optimum selection) happen after the join in the serial
// iteration order. Task *submission* order for step 5 is shuffled with a
// deterministic per-run util::Rng stream purely to spread early tasks
// across cache shards; it cannot affect any result.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "dse/explorer.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/mapping_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace rsp::runtime {

struct RuntimeOptions {
  /// Worker threads when no external pool is supplied; 0 = hardware count.
  int threads = 0;
  /// External pool to run on (non-owning). nullptr = a private pool is
  /// created per call. Sharing one pool avoids thread churn when serving
  /// many requests per process (api::Service does).
  ThreadPool* pool = nullptr;
  /// Memo table consulted before any rescheduling. nullptr = no caching.
  std::shared_ptr<EvalCache> cache;
  /// Step-1 memo table consulted before any remapping. nullptr = the
  /// ParallelExplorer creates a private one (bounded by `max_entries`), so
  /// repeated explore() calls on one instance already skip remapping; pass
  /// one in to share across instances and requests (api::Service does).
  std::shared_ptr<MappingCache> mapping_cache;
  /// Capacity bound for memo tables created on the caller's behalf
  /// (segmented-LRU eviction); 0 = unbounded. Tables passed in keep the
  /// bound they were constructed with.
  std::size_t max_entries = 0;
};

/// The parallel steps 1–4: bit-identical to dse::Explorer::prepare on the
/// same domain. Step 1 runs one task per kernel (through `mapping_cache`
/// when non-null), steps 2–3 run chunked over the enumerated grid, step 4
/// reduces after the join in serial enumeration order. Exposed so benches
/// measure the production code path.
dse::PreparedExploration prepare_parallel(
    const dse::Explorer& explorer,
    const std::vector<kernels::Workload>& domain, ThreadPool& pool,
    MappingCache* mapping_cache);

/// The parallel step 5: exact-evaluates every Pareto survivor in `result`
/// across `pool`, one task per (survivor, kernel), memoized through
/// `cache` when non-null. `programs`/`kernel_names` come from
/// dse::Explorer::prepare. This is the exact fan-out ParallelExplorer
/// runs; it is exposed so benches measure the production code path.
void evaluate_pareto_exact(const std::vector<sched::PlacedProgram>& programs,
                           const std::vector<std::string>& kernel_names,
                           dse::ExplorationResult& result, ThreadPool& pool,
                           EvalCache* cache);

class ParallelExplorer {
 public:
  explicit ParallelExplorer(arch::ArraySpec array,
                            dse::ExplorerConfig config = {},
                            synth::SynthesisModel synth =
                                synth::SynthesisModel(),
                            RuntimeOptions options = {});

  /// The full Fig. 7 flow with steps 1–5 parallelized; bit-identical to
  /// dse::Explorer::explore on the same inputs.
  dse::ExplorationResult explore(
      const std::vector<kernels::Workload>& domain) const;

  /// Steps 1–4 only (prepare_parallel on this explorer's pool and mapping
  /// cache); bit-identical to dse::Explorer::prepare.
  dse::PreparedExploration prepare(
      const std::vector<kernels::Workload>& domain) const;

  /// Parallel counterpart of core::RspEvaluator::evaluate_suite;
  /// bit-identical to the serial path. `kernel_id` names the program in
  /// cache keys (use the workload name).
  std::vector<core::EvalResult> evaluate_suite(
      const std::string& kernel_id, const sched::PlacedProgram& program,
      const std::vector<arch::Architecture>& suite) const;

  const RuntimeOptions& options() const { return options_; }
  const std::shared_ptr<MappingCache>& mapping_cache() const {
    return options_.mapping_cache;
  }

 private:
  dse::Explorer explorer_;
  RuntimeOptions options_;
};

}  // namespace rsp::runtime
