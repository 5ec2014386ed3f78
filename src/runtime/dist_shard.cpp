#include "runtime/dist_shard.hpp"

#include <exception>
#include <future>
#include <string>

#include "core/estimate.hpp"
#include "runtime/parallel_explorer.hpp"
#include "util/error.hpp"

namespace rsp::runtime {

namespace {

// Waits for every task before propagating the first failure, so no task is
// left running with references to stack frames that are being unwound.
void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void check_bounds(std::size_t begin, std::size_t end,
                  std::size_t grid_size) {
  if (begin >= end)
    throw InvalidArgumentError("shard range [" + std::to_string(begin) +
                               ", " + std::to_string(end) + ") is empty");
  if (end > grid_size)
    throw InvalidArgumentError(
        "shard range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") exceeds the enumeration grid (" +
        std::to_string(grid_size) + " points)");
}

}  // namespace

EstimateShard estimate_shard(const dse::Explorer& explorer,
                             const std::vector<kernels::Workload>& domain,
                             std::size_t begin, std::size_t end,
                             ThreadPool& pool,
                             MappingCache* mapping_cache) {
  const std::vector<dse::DesignPoint> points = explorer.enumerate_points();
  check_bounds(begin, end, points.size());

  const PreparedKernels prep =
      prepare_kernels_parallel(explorer, domain, pool, mapping_cache);
  const arch::Architecture base = explorer.base_architecture();

  EstimateShard shard;
  for (const auto& record : prep.records)
    shard.base_cycles += record->base_context.length();
  const std::vector<std::shared_ptr<const core::EstimateProfile>> profiles =
      estimate_profiles(prep, mapping_cache);

  // One task per point: slot i holds the estimated-cycle sum the serial
  // loop would compute for enumeration index begin + i, from the same
  // profiles prepare_parallel queries.
  shard.estimated_cycles.assign(end - begin, 0);
  std::vector<std::future<void>> futures;
  futures.reserve(end - begin);
  try {
    for (std::size_t i = begin; i < end; ++i) {
      futures.push_back(pool.submit([&, i] {
        const arch::Architecture target =
            explorer.point_architecture(points[i], base);
        long sum = 0;
        for (const auto& profile : profiles)
          sum += profile->estimate(target).estimated_cycles();
        shard.estimated_cycles[i - begin] = sum;
      }));
    }
  } catch (...) {
    for (std::future<void>& f : futures)
      if (f.valid()) f.wait();
    throw;
  }
  join_all(futures);
  return shard;
}

ExactShard exact_shard(const dse::Explorer& explorer,
                       const std::vector<kernels::Workload>& domain,
                       std::size_t begin, std::size_t end, ThreadPool& pool,
                       MappingCache* mapping_cache, EvalCache* eval_cache) {
  const std::vector<dse::DesignPoint> points = explorer.enumerate_points();
  check_bounds(begin, end, points.size());

  const PreparedKernels prep =
      prepare_kernels_parallel(explorer, domain, pool, mapping_cache);
  const arch::Architecture base = explorer.base_architecture();
  const std::size_t num_kernels = domain.size();

  // Program tags are O(program) to hash — once per kernel, not per task.
  std::vector<std::string> tags(num_kernels);
  if (eval_cache != nullptr)
    for (std::size_t k = 0; k < num_kernels; ++k)
      tags[k] = EvalCache::program_tag(prep.records[k]->program);

  ExactShard shard;
  shard.cycles.assign(end - begin, std::vector<long>(num_kernels, 0));
  shard.stalls.assign(end - begin, std::vector<long>(num_kernels, 0));

  // One task per (point, kernel): measurements land in fixed matrix slots
  // under the same cache keys as the single-process step-5 fan-out
  // (kernel name + program tag + architecture fingerprint).
  const sched::ContextScheduler scheduler;
  std::vector<arch::Architecture> targets;
  targets.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i)
    targets.push_back(explorer.point_architecture(points[i], base));

  std::vector<std::future<void>> futures;
  futures.reserve((end - begin) * num_kernels);
  try {
    for (std::size_t i = 0; i < end - begin; ++i) {
      for (std::size_t k = 0; k < num_kernels; ++k) {
        futures.push_back(pool.submit([&, i, k] {
          const arch::Architecture& a = targets[i];
          const EvalRecord rec = cached_measure(
              eval_cache,
              eval_cache != nullptr
                  ? EvalCache::key(domain[k].name, tags[k], a)
                  : std::string(),
              scheduler, prep.records[k]->program, a);
          shard.cycles[i][k] = rec.cycles;
          shard.stalls[i][k] = rec.stalls;
        }));
      }
    }
  } catch (...) {
    for (std::future<void>& f : futures)
      if (f.valid()) f.wait();
    throw;
  }
  join_all(futures);
  return shard;
}

}  // namespace rsp::runtime
