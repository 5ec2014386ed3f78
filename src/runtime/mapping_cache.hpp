// Sharded memo table for step-1 mapping products.
//
// Step 1 of the Fig. 7 flow — mapping a kernel and scheduling it on the
// base architecture — is recomputed identically for every `dse`, `eval`
// and `map` request touching the same workload, and it dominates the
// serial front-end of a serving process. This cache memoizes the
// dse::KernelPrep (placed program, base configuration context and timing
// profile) per stable (kernel, array-spec) fingerprint so repeated
// requests skip remapping entirely. Each record also carries its program's
// EvalCache::program_tag, hashed once when the record is built, so a
// request measuring through the EvalCache on a hit does not rehash the
// program. Records are shared by pointer: a hit is one shared_ptr copy,
// never a program copy, and eviction just drops a reference (in-flight
// readers keep theirs alive). They are immutable but for the timing
// profile's stall-free memo, which is atomic, so every request measuring
// a kernel fills and reuses the same memo.
//
// Key composition: the kernel's canonical name plus a content hash of
// everything the mapper reads — the array spec, the mapping hints, the
// reduction spec and the body-graph structure (trip count, node kinds,
// operand/carried edges, immediates, memory array names). This closes the
// alias trap where one kernel name is paired with two different mapping
// directives against a warm shared cache. The one thing the hash cannot
// see is a memory node's index *function* (an opaque closure); two
// workloads that differ solely there must use distinct names — the
// kernels catalogue guarantees this.
//
// Alongside the step-1 records the cache keeps a second table memoizing
// the per-kernel part of the step-2/3 fast performance estimate: the
// core::EstimateProfile of each base context, keyed by the mapping key.
// Every sweep fetches one profile per kernel, so a repeated exploration of
// the same domain skips remapping, base scheduling and profile extraction,
// and estimating a design point is one stall pass over the profile. (A
// table of per-point estimates would cost a string key per (kernel, point)
// pair, about as much as the stall pass it saves.)
//
// Concurrency, capacity bounding and segmented-LRU eviction come from
// StripedMemoCache (see runtime/striped_cache.hpp) — the same machinery
// behind the EvalCache. This class holds no locks of its own, so the
// thread-safety annotations live entirely in the shared core.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/estimate.hpp"
#include "dse/explorer.hpp"
#include "kernels/workload.hpp"
#include "runtime/striped_cache.hpp"

namespace rsp::runtime {

/// One memoized step-1 product: the KernelPrep and the
/// EvalCache::program_tag of its program.
struct MappingRecord : dse::KernelPrep {
  std::string program_tag;
};

class MappingCache {
 public:
  /// `max_entries` bounds each table independently (segmented-LRU
  /// eviction, enforced per shard as ceil(max_entries / shards)); 0 keeps
  /// them unbounded.
  explicit MappingCache(std::size_t shards = 16, std::size_t max_entries = 0)
      : cache_(shards, max_entries), estimates_(shards, max_entries) {}

  MappingCache(const MappingCache&) = delete;
  MappingCache& operator=(const MappingCache&) = delete;

  /// Stable fingerprint of everything the mapper reads (see file comment).
  static std::string key(const kernels::Workload& workload);

  /// The memoized step 1: returns the cached record or computes it via
  /// dse::prepare_kernel and EvalCache::program_tag (outside any shard
  /// lock) and publishes it. The returned record is safe to share across
  /// threads (see the file comment).
  /// `mapping_key` must be key(workload) — callers touching a workload
  /// repeatedly compute it once.
  std::shared_ptr<const MappingRecord> get_or_map(
      const std::string& mapping_key, const kernels::Workload& workload);
  std::shared_ptr<const MappingRecord> get_or_map(
      const kernels::Workload& workload) {
    return get_or_map(key(workload), workload);
  }

  /// The memoized estimate profile of `base_context`, the step-1 product
  /// under `mapping_key`. Profiles are immutable and deterministic, so a
  /// cached one estimates bit-identically to a freshly built one.
  std::shared_ptr<const core::EstimateProfile> get_or_profile(
      const std::string& mapping_key,
      const sched::ConfigurationContext& base_context);

  CacheStats stats() const { return cache_.stats(); }
  CacheStats estimate_stats() const { return estimates_.stats(); }
  std::size_t shard_count() const { return cache_.shard_count(); }
  std::size_t max_entries() const { return cache_.max_entries(); }

 private:
  StripedMemoCache<std::shared_ptr<const MappingRecord>> cache_;
  StripedMemoCache<std::shared_ptr<const core::EstimateProfile>> estimates_;
};

}  // namespace rsp::runtime
