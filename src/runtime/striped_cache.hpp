// Striped memo table with bounded capacity and segmented-LRU eviction.
//
// StripedMemoCache<Value> is the concurrency core shared by the runtime's
// memo tables (EvalCache for (kernel, architecture) measurements, the
// MappingCache for step-1 mapping products): a string-keyed table striped
// over independently locked shards so worker threads rarely contend, with
// hit/miss/eviction counters feeding the runtime reports.
//
// Capacity is bounded per shard (ceil(max_entries / shards); 0 keeps the
// table unbounded) and enforced with a *segmented* LRU: new keys enter a
// probationary segment and are promoted to a protected segment on their
// first hit, so a scan of one-shot keys (a sweep over a huge design grid)
// cannot flush the repeatedly-hit entries a serving process lives off.
// Victims come from the probation tail first; the protected segment is
// capped at ~80% of the shard so promotion pressure demotes its tail back
// to probation instead of pinning the whole shard.
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
#include <list>
#include <optional>
#include <string>
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

/// Recency bookkeeping for one shard (externally guarded by the shard
/// mutex). Tracks exactly the shard's resident keys, split into the
/// probation and protected segments described above; both lists keep their
/// most-recently-used key at the front.
class SegmentedLru {
 public:
  /// Registers a new resident key as the probation MRU (refreshes in place
  /// when the key is already tracked — an insert-overwrite).
  void admit(const std::string& key) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      refresh(it->second);
      return;
    }
    probation_.push_front(key);
    index_.emplace(key, Pos{Segment::kProbation, probation_.begin()});
  }

  /// Records a hit: probation keys are promoted to the protected MRU slot,
  /// protected keys move back to it. When promotion pushes the protected
  /// segment past `protected_capacity`, its LRU tail is demoted to the
  /// probation MRU slot (not evicted — it keeps one more chance).
  void touch(const std::string& key, std::size_t protected_capacity) {
    const auto it = index_.find(key);
    if (it == index_.end()) return;  // not resident
    protected_.splice(protected_.begin(),
                      it->second.segment == Segment::kProbation ? probation_
                                                                : protected_,
                      it->second.it);
    it->second = Pos{Segment::kProtected, protected_.begin()};
    while (protected_capacity > 0 && protected_.size() > protected_capacity) {
      probation_.splice(probation_.begin(), protected_,
                        std::prev(protected_.end()));
      index_[probation_.front()] = Pos{Segment::kProbation,
                                       probation_.begin()};
    }
  }

  bool empty() const { return index_.empty(); }

  /// Removes and returns the eviction victim: the probation LRU tail when
  /// one exists, the protected LRU tail otherwise — except that `exclude`
  /// (the key whose admission triggered the eviction) is never chosen
  /// while another candidate exists. Without the exception, a shard whose
  /// protected segment fills its whole capacity would evict every new key
  /// the moment it is inserted and pin the protected entries forever.
  /// Precondition: !empty().
  std::string pop_victim(const std::string& exclude) {
    std::list<std::string>& from =
        probation_.empty() ||
                (probation_.size() == 1 && probation_.front() == exclude &&
                 !protected_.empty())
            ? protected_
            : probation_;
    std::string key = std::move(from.back());
    from.pop_back();
    index_.erase(key);
    return key;
  }

 private:
  enum class Segment { kProbation, kProtected };
  struct Pos {
    Segment segment;
    std::list<std::string>::iterator it;
  };

  std::list<std::string>& segment_list(Segment s) {
    return s == Segment::kProbation ? probation_ : protected_;
  }

  void refresh(Pos& pos) {
    std::list<std::string>& list = segment_list(pos.segment);
    list.splice(list.begin(), list, pos.it);
    pos.it = list.begin();
  }

  std::list<std::string> probation_;
  std::list<std::string> protected_;
  std::unordered_map<std::string, Pos> index_;
};

template <typename Value>
class StripedMemoCache {
 public:
  explicit StripedMemoCache(std::size_t shards = 16,
                            std::size_t max_entries = 0)
      : max_entries_(max_entries), shards_(shards) {
    if (shards == 0)
      throw InvalidArgumentError("memo cache requires at least one shard");
    if (max_entries > 0) {
      shard_capacity_ = (max_entries + shards - 1) / shards;  // ceil
      protected_capacity_ =
          shard_capacity_ > 1 ? (shard_capacity_ * 4) / 5 : 1;
    }
  }

  StripedMemoCache(const StripedMemoCache&) = delete;
  StripedMemoCache& operator=(const StripedMemoCache&) = delete;

  std::optional<Value> lookup(const std::string& key) const {
    const Shard& shard = shard_for(key);
    const util::MutexLock lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (shard_capacity_ > 0) shard.lru.touch(key, protected_capacity_);
    return it->second;
  }

  void insert(const std::string& key, const Value& value) {
    Shard& shard = shard_for(key);
    const util::MutexLock lock(shard.mutex);
    shard.map.insert_or_assign(key, value);  // last writer wins
    if (shard_capacity_ > 0) {
      shard.lru.admit(key);
      evict_overflow(shard, key);
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

  /// Consistent per entry, not across concurrent writers (shards are locked
  /// one at a time) — callers wanting an exact image quiesce the pool first.
  std::vector<std::pair<std::string, Value>> snapshot() const {
    std::vector<std::pair<std::string, Value>> out;
    for (const Shard& shard : shards_) {
      const util::MutexLock lock(shard.mutex);
      for (const auto& [key, value] : shard.map) out.emplace_back(key, value);
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
      s.entries += shard.map.size();
    }
    return s;
  }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t max_entries() const { return max_entries_; }

 private:
  struct Shard {
    mutable util::Mutex mutex;
    std::unordered_map<std::string, Value> map RSP_GUARDED_BY(mutex);
    /// Recency over the resident keys; mutable because a lookup hit is a
    /// (mutex-guarded) recency update on a logically-const table.
    mutable SegmentedLru lru RSP_GUARDED_BY(mutex);
  };

  // mix64 on top of FNV-1a: near-identical keys (consecutive parameter
  // fingerprints) must not cluster on one shard.
  Shard& shard_for(const std::string& key) {
    return shards_[util::mix64(util::fnv1a(key)) % shards_.size()];
  }
  const Shard& shard_for(const std::string& key) const {
    return shards_[util::mix64(util::fnv1a(key)) % shards_.size()];
  }

  // Under the shard lock: evict until the shard is back within capacity,
  // never choosing `admitted` (the key that triggered the overflow) while
  // another entry exists.
  void evict_overflow(Shard& shard, const std::string& admitted)
      RSP_REQUIRES(shard.mutex) {
    while (shard_capacity_ > 0 && shard.map.size() > shard_capacity_ &&
           !shard.lru.empty()) {
      shard.map.erase(shard.lru.pop_victim(admitted));
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t max_entries_ = 0;
  std::size_t shard_capacity_ = 0;      ///< per shard; 0 = unbounded
  std::size_t protected_capacity_ = 0;  ///< per shard; 0 = unbounded
  std::vector<Shard> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace rsp::runtime
