// Turning a workload's Outcome into the benchmark's reported metrics and
// its one-line JSON result.
#pragma once

#include <string>
#include <vector>

#include "stats.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics BENCHMARK.json gates on, from an untraced run:
/// cpu_ms_per_op and setup_s, both process CPU time, each the least over
/// the run's chunks or set-up repetitions (see ChunkRates). CPU time is not
/// inflated by the time a shared host's neighbours keep the process off
/// its cores, which moves every wall-clock figure by more than any
/// usable regression bound.
std::vector<Metric> end_to_end_metrics(const Outcome& outcome);

/// The wall-clock and memory metrics of an untraced run, printed and
/// recorded beside the gated ones: throughput_ops_per_s, latency_p50_ms,
/// latency_tail_ms, setup_wall_s and peak_rss_mb. `tail` receives the
/// percentile and sample count behind latency_tail_ms.
std::vector<Metric> recorded_metrics(const Outcome& outcome, double peak_rss,
                                     TailPercentile& tail);

/// Every name of layer_metrics(), in order: the outcome's value, 0 for a
/// layer the workload does not call, and `calib_burn_ms`.
std::vector<Metric> layer_metric_values(const Outcome& outcome,
                                        double calib_burn_ms);

/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
rsp::util::Json result_line(const Outcome& outcome,
                            const std::vector<Metric>& metrics);

}  // namespace perfbench
