// Sharded memo table for (kernel, architecture) evaluation results.
//
// Re-mapping and re-scheduling the same kernel on the same architecture is
// the dominant cost of exact evaluation, and both the DSE loop and batch
// serving repeat identical pairs constantly. The cache keys entries by a
// canonical fingerprint string: architecture parameters are spelled out in
// full, the program dimension is a 64-bit content hash — distinct mappings
// collide only with ~2^-64 probability, not never (a persisted
// cross-process cache would need the full program content in the key). The
// full key string is stored and compared, so the shard-picking hash adds
// no further collision risk.
//
// The concurrency machinery — shard striping and each shard's
// least-recently-used eviction — lives in runtime/striped_cache.hpp and is
// shared with api::Service's other memo tables; this class adds the
// key/fingerprint composition and the persistence format. It holds no
// locks of its own, so the thread-safety annotations
// (util/thread_annotations.hpp) live entirely in the shared core.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "arch/presets.hpp"
#include "core/evaluator.hpp"
#include "runtime/striped_cache.hpp"
#include "sched/program.hpp"
#include "util/json.hpp"

namespace rsp::runtime {

/// Everything the runtime memoizes per (kernel, architecture) pair. Every
/// field comes from one core::measure_perf call (the issue cycles of the
/// real and the stall-free schedule), so an entry written by the DSE path
/// serves the suite-evaluation path and vice versa.
struct EvalRecord {
  int cycles = 0;
  int stalls = 0;
  int nostall_cycles = 0;
  int max_critical_issues = 0;

  bool operator==(const EvalRecord&) const = default;
};

class EvalCache {
 public:
  /// `max_entries` bounds the table: each of the `shards` stripes holds at
  /// most ceil(max_entries / shards) entries and evicts its least recently
  /// used one. 0 keeps it unbounded.
  explicit EvalCache(std::size_t shards = 16, std::size_t max_entries = 0)
      : cache_(shards, max_entries) {}

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Fingerprint of a placed program's scheduling-relevant content. It
  /// closes the alias trap where one kernel id is paired with two
  /// different mappings (e.g. changed hints) against a warm or restored
  /// table.
  /// Hashing is O(program) — compute once per program and reuse the tag
  /// across key() calls, not once per lookup.
  static std::string program_tag(const sched::PlacedProgram& program);

  /// Canonical cache key: kernel identifier + `program_tag` + the
  /// architecture parameters that influence scheduling. Architecture
  /// *names* are excluded so a preset ("RSP#2") and an
  /// identically-parameterised custom design share one entry.
  static std::string key(const std::string& kernel_id,
                         const std::string& program_tag,
                         const arch::Architecture& architecture);

  std::optional<EvalRecord> lookup(const std::string& key) const {
    return cache_.lookup(key);
  }
  void insert(const std::string& key, const EvalRecord& record) {
    cache_.insert(key, record);
  }

  /// lookup, or run `compute` and insert its result. `compute` runs outside
  /// any shard lock (it reschedules kernels — far too slow to serialize);
  /// when it throws, nothing is published.
  EvalRecord get_or_compute(const std::string& key,
                            const std::function<EvalRecord()>& compute) {
    return cache_.get_or_compute(key, compute);
  }

  /// The memoized measurement of a program on `architecture`: the record
  /// under key(kernel_id, program_tag, architecture), or a fresh
  /// core::measure_perf on `profile` published under that key.
  /// `program_tag` and `profile` must both come from that program (a
  /// dse::KernelPrep carries its profile) — callers measuring one program
  /// on many architectures compute the tag once. DSE step 5 and suite
  /// evaluation both measure through here, so their entries serve each
  /// other.
  core::MeasuredPerf get_or_measure(const std::string& kernel_id,
                                    const std::string& program_tag,
                                    const sched::TimingProfile& profile,
                                    const arch::Architecture& architecture);

  /// Serialization format version; bumped whenever the entry schema or the
  /// key fingerprint composition changes incompatibly.
  static constexpr int kSerialFormatVersion = 1;

  /// Snapshot of every entry as a JSON document:
  ///   {"format": "rsp-eval-cache", "version": 1,
  ///    "entries": [{"key": ..., "cycles": ..., "stalls": ...,
  ///                 "nostall_cycles": ..., "max_critical_issues": ...}]}
  /// Shards are locked one at a time, so the snapshot is consistent per
  /// entry but not across concurrent writers — callers wanting an exact
  /// image quiesce the pool first. Keys embed a program hash, so a
  /// persisted table is only meaningful to the same build that wrote it;
  /// a mismatched key is simply never looked up (a cold miss), never a
  /// wrong hit. An *evicting* cache snapshots whatever is resident
  /// at that moment; restoring into a bounded table re-enters through the
  /// normal insert path (and may evict again if the bound is smaller).
  util::Json serialize() const;

  /// Merges every entry of `doc` (a `serialize()` document) into the table,
  /// last writer wins; returns the number of entries loaded. Throws
  /// InvalidArgumentError on a wrong format marker, a version mismatch, or
  /// malformed entries — a table from an incompatible build must be
  /// rejected loudly, not half-loaded.
  std::size_t deserialize(const util::Json& doc);

  CacheStats stats() const { return cache_.stats(); }

 private:
  StripedMemoCache<EvalRecord> cache_;
};

}  // namespace rsp::runtime
