// Striped memo table with bounded capacity and least-recently-used eviction.
//
// StripedMemoCache<Value> is the concurrency core shared by the memo
// tables (EvalCache for (kernel, architecture) measurements, and
// api::Service's per-kernel and per-pair memos): a string-keyed table
// striped over independently locked shards so worker threads rarely
// contend, with hit/miss/eviction counters feeding the runtime reports.
// The stripes pay for themselves. On a shared 4-vCPU container, a
// one-lock-per-table variant of the Service used more CPU per perfbench
// serve_mix request in 4 of 4 alternating 20 s pairs (median 0.127 ->
// 0.134 ms) and finished fewer requests in each (411k -> 187k in 20 s at
// seed 11); there, BM_MemoHit (bench/bench_perf.cpp) reads 2.0-2.3M warm
// hits/s from four threads on one shard against 4.8-6.3M/s on 16.
//
// Capacity is bounded per shard (ceil(max_entries / shards); 0 keeps the
// table unbounded). Each shard keeps its entries in one list, least
// recently used first, with a hash index into it: an insert or an
// overwrite puts its entry at the most recent end, and so does a hit in a
// bounded table (an unbounded one needs no recency, so its concurrent hits
// write no shared list node). An insert that takes the shard past its
// capacity drops the entry at the least recent end; a new key is the most
// recent entry, so it is never its own victim.
//
// get_or_compute runs the compute outside any shard lock (computes
// reschedule kernels — far too slow to serialize) and publishes its result
// like an insert; a compute that throws publishes nothing. Values are
// deterministic functions of their key, so two threads racing to compute
// the same key insert identical values and the race is benign.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/mutex.hpp"

namespace rsp::runtime {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t evictions = 0;
  /// Configured capacity bound; 0 = unbounded.
  std::uint64_t max_entries = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

template <typename Value>
class StripedMemoCache {
 public:
  explicit StripedMemoCache(std::size_t shards = 16,
                            std::size_t max_entries = 0)
      : max_entries_(max_entries), shards_(shards) {
    if (shards == 0)
      throw InvalidArgumentError("memo cache requires at least one shard");
    if (max_entries > 0)
      shard_capacity_ = (max_entries + shards - 1) / shards;  // ceil
  }

  StripedMemoCache(const StripedMemoCache&) = delete;
  StripedMemoCache& operator=(const StripedMemoCache&) = delete;

  std::optional<Value> lookup(const std::string& key) const {
    const Shard& shard = shard_for(key);
    const util::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (shard_capacity_ > 0)
      shard.entries.splice(shard.entries.end(), shard.entries, it->second);
    return it->second->second;
  }

  void insert(const std::string& key, const Value& value) {
    Shard& shard = shard_for(key);
    const util::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = value;  // last writer wins
      shard.entries.splice(shard.entries.end(), shard.entries, it->second);
      return;
    }
    shard.entries.emplace_back(key, value);
    shard.index.emplace(shard.entries.back().first,
                        std::prev(shard.entries.end()));
    if (shard_capacity_ > 0 && shard.entries.size() > shard_capacity_) {
      shard.index.erase(shard.entries.front().first);
      shard.entries.pop_front();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// lookup, or run `compute` and insert its result. `compute` runs outside
  /// any shard lock; when it throws, nothing is published.
  Value get_or_compute(const std::string& key,
                       const std::function<Value()>& compute) {
    if (std::optional<Value> hit = lookup(key)) return std::move(*hit);
    Value value = compute();  // slow path, outside the lock
    insert(key, value);
    return value;
  }

  /// Each shard's entries in list order (least recently used first in a
  /// bounded table), so inserting them in order into a table of the same
  /// shape restores every shard's recency.
  /// Consistent per entry, not across concurrent writers (shards are locked
  /// one at a time) — callers wanting an exact image quiesce the pool first.
  std::vector<std::pair<std::string, Value>> snapshot() const {
    std::vector<std::pair<std::string, Value>> out;
    for (const Shard& shard : shards_) {
      const util::MutexLock lock(shard.mutex);
      out.insert(out.end(), shard.entries.begin(), shard.entries.end());
    }
    return out;
  }

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.max_entries = max_entries_;
    for (const Shard& shard : shards_) {
      const util::MutexLock lock(shard.mutex);
      s.entries += shard.entries.size();
    }
    return s;
  }

 private:
  using Entries = std::list<std::pair<std::string, Value>>;

  struct Shard {
    mutable util::Mutex mutex;
    /// Resident entries, least recent first; mutable because a lookup hit
    /// in a bounded table is a (mutex-guarded) recency update on a
    /// logically-const table.
    mutable Entries entries RSP_GUARDED_BY(mutex);
    /// Each entry's list node, keyed by a view of the key the node holds.
    std::unordered_map<std::string_view, typename Entries::iterator> index
        RSP_GUARDED_BY(mutex);
  };

  // mix64 on top of FNV-1a: near-identical keys (consecutive parameter
  // fingerprints) must not cluster on one shard.
  Shard& shard_for(const std::string& key) {
    return shards_[util::mix64(util::fnv1a(key)) % shards_.size()];
  }
  const Shard& shard_for(const std::string& key) const {
    return shards_[util::mix64(util::fnv1a(key)) % shards_.size()];
  }

  std::size_t max_entries_ = 0;
  std::size_t shard_capacity_ = 0;  ///< per shard; 0 = unbounded
  std::vector<Shard> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace rsp::runtime
