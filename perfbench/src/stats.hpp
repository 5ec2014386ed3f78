// The benchmark's arithmetic: medians, the reported tail percentile and
// memo-table hit ratios from cache_stats deltas.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/striped_cache.hpp"

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The highest percentile of a fixed ladder (50, 90, 95, 99, 99.9, 99.99)
/// that has at least `min_beyond` samples strictly ranked beyond it; the
/// coarse ladder keeps the rung chosen from sitting on its last few
/// samples. Nearest-rank: the p-th percentile of n sorted samples
/// is the ceil(p/100 * n)-th, and `beyond` = n minus that rank. When no
/// rung qualifies (fewer than 2 * min_beyond samples) the median is
/// reported with its own, smaller, beyond count.
struct TailPercentile {
  double percentile = 0.0;
  double value = 0.0;
  std::int64_t beyond = 0;
  std::int64_t samples = 0;
};
TailPercentile tail_percentile(std::vector<double> samples,
                               std::int64_t min_beyond = 10);

/// One timed operation: its latency, and the wall and process CPU seconds
/// since the timed phase began, read when it completed.
struct OpRecord {
  double latency_ms = 0.0;
  double done_s = 0.0;
  double cpu_s = 0.0;
};

/// Rates over `chunks` consecutive runs of operations (ordered by
/// completion). Chunk k spans from the previous chunk's last completion
/// (the phase start for the first) to its own last completion.
///
/// `throughput_ops_per_s` is the median chunk's. `cpu_ms_per_op` is the
/// least of the chunks': a shared host's neighbours only ever make a chunk
/// cost more, in shifts lasting seconds, so the least-disturbed tenth of a
/// run is what repeats from run to run; a slower build slows every chunk.
struct ChunkRates {
  double throughput_ops_per_s = 0.0;
  double cpu_ms_per_op = 0.0;
};
ChunkRates chunk_rates(std::vector<OpRecord> ops, int chunks = 10);

/// What one memo table did between two cache_stats snapshots.
struct CacheDelta {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  double hit_ratio = 0.0;     ///< hits / lookups; 0 without lookups
  std::int64_t entries = 0;   ///< growth of the table (negative on eviction)
};
CacheDelta cache_delta(const rsp::runtime::CacheStats& before,
                       const rsp::runtime::CacheStats& after);

}  // namespace perfbench
