#include "runtime/sim_batch.hpp"

#include <future>
#include <optional>
#include <utility>

#include "sim/program.hpp"

namespace rsp::runtime {

std::vector<SimBatchResult> simulate_batch(
    const sched::ConfigurationContext& context,
    std::vector<ir::Memory> memories, const SimBatchOptions& options) {
  // Compile once; the immutable program is shared read-only by every
  // worker. Compilation also front-loads structural-legality errors so an
  // illegal context fails before any job is enqueued.
  const sim::SimProgram program = sim::SimProgram::compile(context);
  const auto run_job = [&program, &options](ir::Memory memory) {
    SimBatchResult out;
    out.result = program.run(memory, options.mode);
    out.memory = std::move(memory);
    return out;
  };

  std::vector<SimBatchResult> results;
  results.reserve(memories.size());
  if (memories.size() <= 1) {  // no pool round-trip for a single job
    for (ir::Memory& memory : memories)
      results.push_back(run_job(std::move(memory)));
    return results;
  }

  std::optional<ThreadPool> scoped;
  ThreadPool& pool =
      options.pool ? *options.pool : scoped.emplace(options.threads);
  std::vector<std::future<SimBatchResult>> futures;
  futures.reserve(memories.size());
  for (ir::Memory& memory : memories)
    futures.push_back(pool.submit(
        [&run_job, memory = std::move(memory)]() mutable {
          return run_job(std::move(memory));
        }));
  // Every job finishes before the first result is read, so none outlives
  // `program` when one throws; the first failing job by position wins.
  for (const auto& future : futures) future.wait();
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

}  // namespace rsp::runtime
