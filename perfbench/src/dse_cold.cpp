// dse_cold: closed loop, one caller. Each operation builds a fresh
// api::Service{threads=1, max_inflight=1} and runs Service::dse with the
// default ExplorerConfig grid on the next domain of a seed-drawn pool —
// what one `rsp_cli dse` invocation pays apart from process start.
//
// The traced run replays each request through the stage helpers
// runtime::ParallelExplorer uses (prepare_kernel's map/schedule/legality
// calls, enumerate_points, estimate_candidate with a timed EstimateFn,
// pareto_filter, evaluate_exact with a timed MeasureFn, select_optimum) and
// checks that the replay's result is bit-identical to the reference.
#include <algorithm>
#include <map>
#include <optional>

#include "api/service.hpp"
#include "arch/presets.hpp"
#include "checks.hpp"
#include "core/estimate.hpp"
#include "env.hpp"
#include "kernels/registry.hpp"
#include "sched/legality.hpp"
#include "sched/mapper.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using rsp::dse::ExplorationResult;

constexpr int kSetupRepetitions = 9;

rsp::api::ServiceOptions cold_options() {
  rsp::api::ServiceOptions options;
  options.threads = 1;
  options.max_inflight = 1;
  return options;
}

struct Domain {
  std::vector<std::string> names;
  std::vector<rsp::kernels::Workload> workloads;
  ExplorationResult reference;
};

/// Per-operation products of the traced replay besides its spans.
struct ReplayCounts {
  double points = 0;
  double survivors = 0;
};

/// Service::dse's computation through the public stage helpers, one span
/// around every call into a layer.
ExplorationResult replay(const Domain& domain, Tracer* tracer,
                         std::int64_t request, ReplayCounts& counts) {
  const Span op(tracer, "dse.request", request);
  std::optional<rsp::api::Service> service;
  {
    const Span s(tracer, "api.service_ctor");
    service.emplace(cold_options());
  }

  const rsp::arch::ArraySpec& array = domain.workloads.front().array;
  const rsp::dse::Explorer explorer(array, rsp::dse::ExplorerConfig{});
  const rsp::arch::Architecture base = explorer.base_architecture();
  const rsp::sched::ContextScheduler scheduler;

  // Step 1: dse::prepare_kernel's calls, per kernel.
  ExplorationResult result;
  std::vector<rsp::sched::PlacedProgram> programs;
  std::vector<rsp::sched::ConfigurationContext> contexts;
  for (const rsp::kernels::Workload& w : domain.workloads) {
    const rsp::sched::LoopPipeliner mapper(w.array);
    {
      const Span s(tracer, "sched.map");
      programs.push_back(mapper.map(w.kernel, w.hints, w.reduction));
    }
    {
      const Span s(tracer, "sched.schedule");
      contexts.push_back(scheduler.schedule(
          programs.back(),
          rsp::arch::base_architecture(w.array.rows, w.array.cols)));
    }
    {
      const Span s(tracer, "sched.legality");
      rsp::sched::require_legal(contexts.back());
    }
    result.base_cycles += contexts.back().length();
  }
  result.base_area = explorer.synthesis().area(base);
  result.base_time_ns = static_cast<double>(result.base_cycles) *
                        explorer.synthesis().clock_ns(base);

  // Steps 2-3.
  std::vector<rsp::dse::DesignPoint> points;
  {
    const Span s(tracer, "dse.enumerate");
    points = explorer.enumerate_points();
  }
  const rsp::dse::EstimateFn estimate =
      [&](std::size_t k, const rsp::arch::Architecture& target) {
        const Span s(tracer, "core.estimate");
        return rsp::core::estimate_performance(contexts[k], target);
      };
  const double area_raw = explorer.base_area_raw();
  for (const rsp::dse::DesignPoint& point : points) {
    const Span s(tracer, "dse.candidate");
    result.candidates.push_back(explorer.estimate_candidate(
        point, base, contexts.size(), estimate, area_raw,
        result.base_time_ns));
  }

  // Step 4.
  {
    const Span s(tracer, "dse.pareto");
    explorer.pareto_filter(result);
  }

  // Step 5: sched::measure spelled out, so each reschedule is its own span.
  const rsp::dse::MeasureFn measure = [&](std::size_t k,
                                          const rsp::arch::Architecture& a) {
    const Span s(tracer, "dse.exact_measure");
    rsp::sched::PerfPoint p;
    {
      const Span real(tracer, "sched.schedule");
      p.cycles = scheduler.schedule(programs[k], a).length();
    }
    p.nostall_cycles = p.cycles;
    if (a.shares_multiplier()) {
      const Span free_run(tracer, "sched.schedule");
      p.nostall_cycles =
          scheduler.schedule(programs[k], rsp::sched::unlimited_units(a))
              .length();
    }
    p.stalls = p.cycles - p.nostall_cycles;
    return p;
  };
  for (rsp::dse::Candidate& cand : result.candidates) {
    if (!cand.pareto) continue;
    const Span s(tracer, "dse.exact");
    rsp::dse::evaluate_exact(cand, programs.size(), measure);
    counts.survivors += 1;
  }

  // Step 6.
  {
    const Span s(tracer, "dse.select");
    explorer.select_optimum(result);
  }
  counts.points = static_cast<double>(points.size());
  return result;
}

}  // namespace

Outcome run_dse_cold(const RunOptions& options) {
  Outcome out;

  // References: serial dse::Explorer::explore once per pooled domain.
  const std::vector<rsp::kernels::Workload> catalogue =
      rsp::kernels::full_catalogue();
  std::vector<Domain> pool;
  for (std::vector<std::string>& names : dse_domain_pool(options.seed)) {
    const auto seen = std::find_if(pool.begin(), pool.end(), [&](const Domain& d) {
      return d.names == names;
    });
    if (seen != pool.end()) {
      pool.push_back(*seen);
      continue;
    }
    Domain d;
    for (const std::string& name : names)
      d.workloads.push_back(rsp::kernels::find_in_catalogue(catalogue, name));
    d.names = std::move(names);
    d.reference = rsp::dse::Explorer(d.workloads.front().array)
                      .explore(d.workloads);
    pool.push_back(std::move(d));
  }
  const std::string pinned = paper_golden_diff(
      pool.front().reference,
      std::string(PERFBENCH_DATA_DIR) + "/paper_domain_golden.json");
  if (!pinned.empty()) {
    ++out.attempted;
    out.fail(pinned);
  }
  if (options.corrupt_reference) pool[1].reference.base_cycles += 1;

  // One operation: a fresh Service answering one dse request. The latency
  // covers construction to destruction; checking happens after.
  const auto service_dse = [&](const Domain& d,
                               rsp::api::CacheStatsResponse* stats) {
    const rsp::api::Service service(cold_options());
    ExplorationResult result =
        service.dse({d.names, rsp::dse::ExplorerConfig{}}).result;
    if (stats != nullptr) *stats = service.cache_stats({});
    return result;
  };
  const auto check = [&](const ExplorationResult& result, const Domain& d,
                         const std::string& what) {
    ++out.attempted;
    const std::string diff = exploration_diff(result, d.reference);
    if (!diff.empty())
      out.fail(what + " (" + std::to_string(d.names.size()) +
               " kernels): " + diff);
  };
  const auto pooled = [&](std::int64_t i) -> const Domain& {
    return pool[static_cast<std::size_t>(i) % pool.size()];
  };

  // Set-up: one Service plus a warm-up paper-domain dse.
  const auto setup = [&] {
    ExplorationResult result;
    record_setup(out, [&] { result = service_dse(pool.front(), nullptr); });
    check(result, pool.front(), "warm-up");
  };
  setup();

  if (!options.trace) {
    PhaseClock clock;
    for (std::int64_t i = 0; clock.wall_s() < options.seconds; ++i) {
      if (static_cast<int>(out.setup_cpu_s.size()) <
          setups_due(kSetupRepetitions, clock.wall_s(), options.seconds))
        clock.exclude(setup);
      const auto start = Clock::now();
      const ExplorationResult result = service_dse(pooled(i), nullptr);
      out.ops.push_back(
          {seconds_since(start) * 1e3, clock.wall_s(), clock.cpu_s()});
      check(result, pooled(i), "request " + std::to_string(i));
    }
    return out;
  }

  // Traced run, phase 1 (a third of the time): untraced Service::dse for the
  // memo-table fills of each fresh Service.
  std::map<std::string, std::vector<double>> cache_metrics;
  const auto t1 = Clock::now();
  for (std::int64_t i = 0; seconds_since(t1) < options.seconds / 3; ++i) {
    rsp::api::CacheStatsResponse stats;
    check(service_dse(pooled(i), &stats), pooled(i),
          "request " + std::to_string(i));
    const rsp::runtime::CacheStats empty;
    for (const auto& [name, stat] : cache_tables(stats)) {
      const CacheDelta d = cache_delta(empty, *stat);
      const std::string key = "runtime." + name + "_cache.";
      cache_metrics[key + "hit_ratio"].push_back(d.hit_ratio);
      cache_metrics[key + "entries"].push_back(static_cast<double>(d.entries));
    }
  }

  // Phase 2: each request replayed untraced, then traced.
  Tracer& tracer = out.tracer;
  std::vector<double> points, survivors, ratio;
  double untraced_s = 0.0;
  const auto t2 = Clock::now();
  for (std::int64_t i = 0; seconds_since(t2) < options.seconds * 2 / 3; ++i) {
    const Domain& d = pooled(i);
    for (Tracer* t : {static_cast<Tracer*>(nullptr), &tracer}) {
      ReplayCounts counts;
      const auto start = Clock::now();
      const ExplorationResult result = replay(d, t, i, counts);
      if (t == nullptr) untraced_s += seconds_since(start);
      check(result, d, "replay " + std::to_string(i));
      if (t != nullptr) {
        points.push_back(counts.points);
        survivors.push_back(counts.survivors);
        ratio.push_back(counts.points > 0 ? counts.survivors / counts.points
                                          : 0.0);
      }
    }
  }

  const LayerTable table = aggregate(tracer.spans());
  const LayerTable paper = aggregate(spans_of(
      tracer.spans(), [&](std::int64_t request) {
        return pooled(request).names == pool.front().names;
      }));
  out.table = "all pooled domains:\n" + render_table(table) +
              "paper domain (9 kernels) only:\n" + render_table(paper);

  const auto layer = [&](const std::string& name, double value) {
    out.layer.emplace_back(name, value);
  };
  layer("api.service_ctor_ms", table.self_ms_median({"api.service_ctor"}));
  for (const char* l : {"map", "schedule", "legality"}) {
    const std::string span = std::string("sched.") + l;
    layer(span + "_ms", table.self_ms_median({span}));
    layer(span + "_calls", table.calls_median(span));
  }
  layer("core.estimate_ms", table.self_ms_median({"core.estimate"}));
  layer("core.estimate_calls", table.calls_median("core.estimate"));
  layer("dse.candidate_self_ms", table.self_ms_median({"dse.candidate"}));
  layer("dse.pareto_ms", table.self_ms_median({"dse.pareto"}));
  layer("dse.exact_ms",
        table.self_ms_median({"dse.exact", "dse.exact_measure"}));
  layer("dse.exact_measure_calls", table.calls_median("dse.exact_measure"));
  layer("dse.points", median(points));
  layer("dse.pareto_survivors", median(survivors));
  layer("dse.survivor_ratio", median(ratio));
  for (const auto& [name, values] : cache_metrics) layer(name, median(values));
  layer("residual_ms", median(table.residual_ms));
  layer("trace.op_ms", median(table.op_ms));
  double traced_s = 0.0;
  for (const double ms : table.op_ms) traced_s += ms / 1e3;
  layer("trace.overhead_ratio", untraced_s > 0 ? traced_s / untraced_s : 0.0);
  return out;
}

}  // namespace perfbench
