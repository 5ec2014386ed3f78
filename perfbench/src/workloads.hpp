// The three workloads. Each runs in its own process (one per benchmark
// invocation), generates its own load, and checks every output.
//
// An untraced run measures the end-to-end metrics: set-up (repeated, so its
// median is stable), then a closed loop for the requested wall time. A
// traced run replays the same operations through the layers' public
// functions with a span around every call and reports per-layer metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/service.hpp"
#include "env.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: corrupt one reference output, so checking must count
  /// failures (the run then reports a non-zero error rate).
  bool corrupt_reference = false;
  /// Where run products go (results, traces, the serve socket).
  std::string out_dir = ".";
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure details

  // Untraced runs: per set-up repetition, process CPU and wall seconds.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::vector<OpRecord> ops;  ///< one per operation of the timed phase

  // Traced runs: per-layer metrics by name, and the printed table.
  std::vector<std::pair<std::string, double>> layer;
  std::string table;
  Tracer tracer;

  void fail(std::string detail) {
    ++failed;
    if (failures.size() < 5) failures.push_back(std::move(detail));
  }
};

/// Runs one set-up repetition and records what it cost.
template <typename F>
void record_setup(Outcome& out, F&& setup) {
  const auto start = std::chrono::steady_clock::now();
  const double cpu = cpu_seconds();
  setup();
  out.setup_cpu_s.push_back(cpu_seconds() - cpu);
  out.setup_wall_s.push_back(seconds_since(start));
}

/// Wall and CPU clocks of a timed phase that can leave out interludes. The
/// single-caller workloads run their later set-up repetitions inside the
/// timed phase, spread evenly across it. Host speed on a shared machine
/// shifts for seconds at a time and is steady within a shift. Set-ups run
/// back to back before the phase would all land in one shift; spread out,
/// their median is as steady as the operations' chunk medians.
class PhaseClock {
 public:
  PhaseClock()
      : start_(std::chrono::steady_clock::now()), cpu_start_(cpu_seconds()) {}

  double wall_s() const { return seconds_since(start_) - paused_wall_; }
  double cpu_s() const { return cpu_seconds() - cpu_start_ - paused_cpu_; }

  /// Runs `interlude` with both clocks stopped.
  template <typename F>
  void exclude(F&& interlude) {
    const auto wall = std::chrono::steady_clock::now();
    const double cpu = cpu_seconds();
    interlude();
    paused_wall_ += seconds_since(wall);
    paused_cpu_ += cpu_seconds() - cpu;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  double cpu_start_;
  double paused_wall_ = 0.0;
  double paused_cpu_ = 0.0;
};

/// How many of `total` set-up repetitions are due once `elapsed` of a
/// `seconds`-long phase has passed: the first before the phase, the rest
/// at even intervals through it (the k-th at k/total of the phase).
inline int setups_due(int total, double elapsed, double seconds) {
  return std::min(total, 1 + static_cast<int>(total * elapsed / seconds));
}

Outcome run_dse_cold(const RunOptions& options);
Outcome run_serve_mix(const RunOptions& options);
Outcome run_fuzz_gen(const RunOptions& options);

/// The four memo tables of a cache_stats response, by name.
std::vector<std::pair<std::string, const rsp::runtime::CacheStats*>>
cache_tables(const rsp::api::CacheStatsResponse& stats);

/// Every per-layer metric name with its unit, in BENCHMARK.json's order.
/// Traced runs report all of them; a layer a workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
