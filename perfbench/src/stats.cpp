#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

TailPercentile tail_percentile(std::vector<double> samples,
                               std::int64_t min_beyond) {
  TailPercentile tail;
  const auto n = static_cast<std::int64_t>(samples.size());
  tail.samples = n;
  if (n == 0) return tail;
  std::sort(samples.begin(), samples.end());
  const auto rank_of = [n](double p) {
    // Integer arithmetic on per-myriad ranks keeps the ceil exact.
    const auto per_myriad = static_cast<std::int64_t>(std::llround(p * 100));
    return std::max<std::int64_t>(1, (per_myriad * n + 9999) / 10000);
  };
  const auto pick = [&](double p) {
    const std::int64_t rank = rank_of(p);
    tail.percentile = p;
    tail.value = samples[static_cast<std::size_t>(rank - 1)];
    tail.beyond = n - rank;
  };
  pick(50.0);
  for (const double p : {90.0, 95.0, 99.0, 99.9, 99.99})
    if (n - rank_of(p) >= min_beyond) pick(p);
  return tail;
}

ChunkRates chunk_rates(std::vector<OpRecord> ops, int chunks) {
  std::sort(ops.begin(), ops.end(), [](const OpRecord& a, const OpRecord& b) {
    return a.done_s < b.done_s;
  });
  const auto n = static_cast<std::int64_t>(ops.size());
  chunks = static_cast<int>(std::min<std::int64_t>(chunks, n));
  std::vector<double> throughput, cpu;
  double wall = 0.0, used = 0.0;  // at the previous chunk's end
  std::int64_t begin = 0;
  for (int c = 1; c <= chunks; ++c) {
    const std::int64_t end = n * c / chunks;  // one past the chunk's last op
    const OpRecord& last = ops[static_cast<std::size_t>(end - 1)];
    const auto count = static_cast<double>(end - begin);
    if (last.done_s > wall) throughput.push_back(count / (last.done_s - wall));
    cpu.push_back((last.cpu_s - used) * 1e3 / count);
    wall = last.done_s;
    used = last.cpu_s;
    begin = end;
  }
  return {median(std::move(throughput)),
          cpu.empty() ? 0.0 : *std::min_element(cpu.begin(), cpu.end())};
}

CacheDelta cache_delta(const rsp::runtime::CacheStats& before,
                       const rsp::runtime::CacheStats& after) {
  CacheDelta d;
  d.hits = after.hits - before.hits;
  d.lookups = d.hits + (after.misses - before.misses);
  d.hit_ratio = d.lookups == 0 ? 0.0
                               : static_cast<double>(d.hits) /
                                     static_cast<double>(d.lookups);
  d.entries = static_cast<std::int64_t>(after.entries) -
              static_cast<std::int64_t>(before.entries);
  return d;
}

}  // namespace perfbench
