#include "report.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace perfbench {

using rsp::util::Json;

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"api.service_ctor_ms", "ms"},
      {"sched.map_ms", "ms"},
      {"sched.map_calls", "count"},
      {"sched.schedule_ms", "ms"},
      {"sched.schedule_calls", "count"},
      {"sched.legality_ms", "ms"},
      {"sched.legality_calls", "count"},
      {"core.estimate_ms", "ms"},
      {"core.estimate_calls", "count"},
      {"dse.candidate_self_ms", "ms"},
      {"dse.pareto_ms", "ms"},
      {"dse.exact_ms", "ms"},
      {"dse.exact_measure_calls", "count"},
      {"dse.points", "count"},
      {"dse.pareto_survivors", "count"},
      {"dse.survivor_ratio", "ratio"},
      {"gen.generate_ms", "ms"},
      {"ir.unroll_ms", "ms"},
      {"ir.interp_ms", "ms"},
      {"analysis.verify_ms", "ms"},
      {"analysis.lint_ms", "ms"},
      {"analysis.lint_warnings", "count"},
      {"sim.compile_self_ms", "ms"},
      {"sim.run_event_ms", "ms"},
      {"sim.run_dense_ms", "ms"},
      {"sim.cycles", "cycles"},
      {"sim.active_cycle_ratio", "ratio"},
      {"sim.event_cycles_per_host_s", "cycles/s"},
      {"api.decode_ms", "ms"},
      {"api.encode_ms", "ms"},
      {"api.response_bytes", "bytes"},
      {"api.handle.eval_ms", "ms"},
      {"api.handle.simulate_ms", "ms"},
      {"api.handle.map_ms", "ms"},
      {"api.handle.simulate_batch_ms", "ms"},
      {"api.handle.lint_ms", "ms"},
      {"api.handle.dse_ms", "ms"},
      {"api.handle.eval_gen_ms", "ms"},
      {"api.transport_queue_ms", "ms"},
      {"runtime.eval_cache.hit_ratio", "ratio"},
      {"runtime.eval_cache.entries", "count"},
      {"runtime.mapping_cache.hit_ratio", "ratio"},
      {"runtime.mapping_cache.entries", "count"},
      {"runtime.estimate_cache.hit_ratio", "ratio"},
      {"runtime.estimate_cache.entries", "count"},
      {"runtime.sim_cache.hit_ratio", "ratio"},
      {"runtime.sim_cache.entries", "count"},
      {"residual_ms", "ms"},
      {"trace.op_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"calib.burn_ms", "ms"},
  };
  return metrics;
}

std::vector<std::pair<std::string, const rsp::runtime::CacheStats*>>
cache_tables(const rsp::api::CacheStatsResponse& stats) {
  return {{"eval", &stats.stats},
          {"mapping", &stats.mapping_stats},
          {"estimate", &stats.estimate_stats},
          {"sim", &stats.sim_stats}};
}

std::vector<Metric> end_to_end_metrics(const Outcome& outcome) {
  return {
      {"cpu_ms_per_op", chunk_rates(outcome.ops).cpu_ms_per_op, "ms"},
      {"setup_s",
       outcome.setup_cpu_s.empty()
           ? 0.0
           : *std::min_element(outcome.setup_cpu_s.begin(),
                               outcome.setup_cpu_s.end()),
       "s"},
  };
}

std::vector<Metric> recorded_metrics(const Outcome& outcome, double peak_rss,
                                     TailPercentile& tail) {
  std::vector<double> latency_ms;
  for (const OpRecord& op : outcome.ops) latency_ms.push_back(op.latency_ms);
  tail = tail_percentile(latency_ms);
  return {
      {"throughput_ops_per_s", chunk_rates(outcome.ops).throughput_ops_per_s,
       "ops/s"},
      {"latency_p50_ms", median(latency_ms), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"setup_wall_s", median(outcome.setup_wall_s), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
}

std::vector<Metric> layer_metric_values(const Outcome& outcome,
                                        double calib_burn_ms) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metrics()) {
    double value = 0.0;
    if (name == "calib.burn_ms") {
      value = calib_burn_ms;
    } else {
      const auto it = std::find_if(
          outcome.layer.begin(), outcome.layer.end(),
          [&name = name](const auto& entry) { return entry.first == name; });
      if (it != outcome.layer.end()) value = it->second;
    }
    out.push_back({name, value, unit});
  }
  for (const auto& entry : outcome.layer)
    if (std::none_of(out.begin(), out.end(), [&entry](const Metric& m) {
          return m.name == entry.first;
        }))
      throw rsp::Error("perfbench: layer metric '" + entry.first +
                       "' is not in the metric list");
  return out;
}

Json result_line(const Outcome& outcome, const std::vector<Metric>& metrics) {
  Json values = Json::object();
  for (const Metric& m : metrics) {
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    values.set(m.name, std::move(entry));
  }
  Json line = Json::object();
  line.set("correct", Json(outcome.failed == 0));
  line.set("attempted", Json(outcome.attempted));
  line.set("failed", Json(outcome.failed));
  line.set("metrics", std::move(values));
  return line;
}

}  // namespace perfbench
