#include "runtime/sim_batch.hpp"

#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "sim/program.hpp"
#include "util/error.hpp"

namespace rsp::runtime {
namespace {

// Runs every job through `pool` (or a scoped pool when null), collecting
// results positionally. `run_job(i, memory)` must be safe to call
// concurrently for distinct i. Exceptions propagate from the first failing
// job by position; later jobs still drain.
template <typename RunJob>
std::vector<SimBatchResult> fan_out(std::vector<ir::Memory> memories,
                                    const SimBatchOptions& options,
                                    const RunJob& run_job) {
  std::vector<SimBatchResult> results;
  results.reserve(memories.size());
  if (memories.empty()) return results;

  if (memories.size() == 1) {  // no pool round-trip for a single job
    results.push_back(run_job(0, std::move(memories[0])));
    return results;
  }

  std::optional<ThreadPool> scoped;
  ThreadPool& pool =
      options.pool ? *options.pool : scoped.emplace(options.threads);

  std::vector<std::future<SimBatchResult>> futures;
  futures.reserve(memories.size());
  for (std::size_t i = 0; i < memories.size(); ++i) {
    futures.push_back(pool.submit(
        [&run_job, i, memory = std::move(memories[i])]() mutable {
          return run_job(i, std::move(memory));
        }));
  }
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

}  // namespace

std::vector<SimBatchResult> simulate_batch(
    const sched::ConfigurationContext& context,
    std::vector<ir::Memory> memories, const SimBatchOptions& options) {
  // Compile once; the immutable program is shared read-only by every
  // worker. Compilation also front-loads structural-legality errors so an
  // illegal context fails before any job is enqueued.
  const sim::SimProgram program = sim::SimProgram::compile(context);
  return fan_out(std::move(memories), options,
                 [&program, &options](std::size_t, ir::Memory memory) {
                   SimBatchResult out;
                   out.result = program.run(memory, options.mode);
                   out.memory = std::move(memory);
                   return out;
                 });
}

std::vector<SimBatchResult> simulate_many(
    const std::vector<const sched::ConfigurationContext*>& contexts,
    std::vector<ir::Memory> memories, const SimBatchOptions& options) {
  if (contexts.size() != memories.size())
    throw InvalidArgumentError(
        "simulate_many: " + std::to_string(contexts.size()) +
        " contexts but " + std::to_string(memories.size()) + " memories");
  for (std::size_t i = 0; i < contexts.size(); ++i)
    if (contexts[i] == nullptr)
      throw InvalidArgumentError("simulate_many: context " +
                                 std::to_string(i) + " is null");

  const sim::Machine machine(options.mode);
  return fan_out(std::move(memories), options,
                 [&machine, &contexts](std::size_t i, ir::Memory memory) {
                   SimBatchResult out;
                   out.result = machine.run(*contexts[i], memory);
                   out.memory = std::move(memory);
                   return out;
                 });
}

}  // namespace rsp::runtime
