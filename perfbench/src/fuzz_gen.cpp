// fuzz_gen: closed loop, one caller. Operation i is
// gen::fuzz_one(fuzz_base(seed) + i) with default FuzzOptions — a
// never-seen kernel through generation, map, schedule, legality, lint and
// both simulator engines in both datapath modes, against the interpreter.
//
// The traced run replays fuzz_one's public calls in the same order, with a
// span around each. Two layers run inside other calls: Machine::run (dense)
// verifies its context (analysis::verify_context) before simulating, and
// SimProgram::compile runs verify_context + verify_structural before
// lowering. Their share is measured by timing those two calls on the same
// context right after the operation, outside its interval, and recorded as
// an attributed `analysis.verify` child at the start of the enclosing span.
#include <algorithm>
#include <optional>

#include "analysis/verifier.hpp"
#include "arch/presets.hpp"
#include "env.hpp"
#include "gen/fuzz.hpp"
#include "gen/generator.hpp"
#include "ir/unroll.hpp"
#include "sched/legality.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepetitions = 9;
/// Fixed warm-up trials, the same for every benchmark seed.
constexpr std::uint64_t kWarmupSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

// gen::fuzz_one's architecture choice (Base, then up to two seed-rotated
// sharing designs), restated because it is internal to the harness.
std::vector<std::size_t> arch_indices(std::uint64_t seed,
                                      std::size_t suite_size,
                                      const rsp::gen::FuzzOptions& options) {
  std::vector<std::size_t> indices{0};
  const std::size_t sharing = suite_size - 1;
  const auto limit = static_cast<std::size_t>(std::max(1, options.max_archs));
  for (const std::uint64_t pick : {seed % sharing, (seed / sharing) % sharing}) {
    const std::size_t index = 1 + static_cast<std::size_t>(pick);
    if (indices.size() < limit &&
        std::find(indices.begin(), indices.end(), index) == indices.end())
      indices.push_back(index);
  }
  return indices;
}

struct ReplayCounts {
  double sim_cycles = 0;
  double active_cycles = 0;
  double lint_warnings = 0;
};

/// A verify-running span and the context it verified.
struct VerifySite {
  int span = -1;
  std::size_t context = 0;
  bool structural = false;  ///< compile also runs verify_structural
};

/// fuzz_one's calls in order; returns the first divergence ("" when clean).
/// `inject_event_bug` corrupts the event engine's final memory exactly as
/// FuzzOptions::inject_event_bug does, for the self-test.
std::string replay(std::uint64_t seed, Tracer* tracer, std::int64_t request,
                   bool inject_event_bug, ReplayCounts& counts) {
  const rsp::gen::FuzzOptions options;
  std::vector<rsp::sched::ConfigurationContext> contexts;
  std::vector<VerifySite> sites;
  std::string failure;
  {
    const Span op(tracer, "fuzz.trial", request);
    try {
      rsp::gen::GeneratorConfig config = options.config;
      config.seed = seed;
      std::optional<rsp::kernels::Workload> w;
      {
        const Span s(tracer, "gen.generate");
        w.emplace(rsp::gen::generate_workload(config));
      }
      std::optional<rsp::ir::UnrolledGraph> unrolled;
      {
        const Span s(tracer, "ir.unroll");
        unrolled.emplace(w->kernel);
      }
      rsp::ir::Memory initial;
      w->setup(initial);

      const rsp::ir::DatapathMode modes[] = {rsp::ir::DatapathMode::kExact,
                                             rsp::ir::DatapathMode::kWrap16};
      rsp::ir::Memory reference_memory[2] = {initial, initial};
      rsp::ir::InterpResult reference_values[2];
      for (int m = 0; m < 2; ++m) {
        const Span s(tracer, "ir.interp");
        reference_values[m] = rsp::gen::reference_run(
            w->kernel, w->reduction, *unrolled, reference_memory[m], modes[m]);
      }

      const rsp::sched::LoopPipeliner mapper(w->array);
      std::optional<rsp::sched::PlacedProgram> program;
      {
        const Span s(tracer, "sched.map");
        program.emplace(mapper.map(w->kernel, *unrolled, w->hints, w->reduction));
      }
      const rsp::sched::ContextScheduler scheduler;
      const std::vector<rsp::arch::Architecture> suite =
          rsp::arch::standard_suite(w->array.rows, w->array.cols);
      for (const std::size_t index : arch_indices(seed, suite.size(), options)) {
        const rsp::arch::Architecture& a = suite[index];
        {
          const Span s(tracer, "sched.schedule");
          contexts.push_back(scheduler.schedule(*program, a));
        }
        const std::size_t c = contexts.size() - 1;
        const rsp::sched::ConfigurationContext& ctx = contexts.back();
        rsp::sched::LegalityReport legality;
        {
          const Span s(tracer, "sched.legality");
          legality = rsp::sched::check_legality(ctx);
        }
        if (!legality.ok) {
          failure = a.name + ": illegal schedule: " + legality.violations.front();
          break;
        }
        rsp::analysis::LintReport lint;
        {
          const Span s(tracer, "analysis.lint");
          lint = rsp::analysis::lint_context(ctx);
        }
        counts.lint_warnings += lint.warning_count();
        if (!lint.clean()) {
          failure = a.name + ": lint errors";
          break;
        }

        for (int m = 0; m < 2 && failure.empty(); ++m) {
          rsp::ir::Memory dense_memory = initial;
          rsp::sim::SimResult dense;
          {
            const Span s(tracer, "sim.run_dense");
            dense = rsp::sim::Machine(modes[m], rsp::sim::SimEngine::kDense)
                        .run(ctx, dense_memory);
            sites.push_back({s.index(), c, false});
          }
          // Machine::run with the event engine is exactly compile + run.
          rsp::ir::Memory event_memory = initial;
          std::optional<rsp::sim::SimProgram> compiled;
          {
            const Span s(tracer, "sim.compile");
            compiled.emplace(rsp::sim::SimProgram::compile(ctx));
            sites.push_back({s.index(), c, true});
          }
          rsp::sim::SimResult event;
          {
            const Span s(tracer, "sim.run_event");
            event = compiled->run(event_memory, modes[m]);
          }
          if (inject_event_bug) {
            const std::string array = event_memory.names().front();
            event_memory.write(array, 0, event_memory.read(array, 0) + 1);
          }
          counts.sim_cycles += compiled->total_cycles();
          counts.active_cycles +=
              static_cast<double>(compiled->active_cycle_count());

          if (!(dense == event)) failure = a.name + ": dense != event";
          else if (!(dense_memory == event_memory))
            failure = a.name + ": dense and event memories diverge";
          else if (!(dense_memory == reference_memory[m]))
            failure = a.name + ": memory diverges from the interpreter";
          const std::vector<rsp::sched::ScheduledOp>& ops = ctx.ops();
          for (std::size_t i = 0; i < ops.size() && failure.empty(); ++i) {
            const rsp::sched::ScheduledOp& op = ops[i];
            if (op.source == rsp::ir::kInvalidOp ||
                !rsp::ir::produces_value(op.kind) ||
                op.kind == rsp::ir::OpKind::kRoute)
              continue;
            if (dense.values[i] !=
                reference_values[m].values[static_cast<std::size_t>(op.source)])
              failure = a.name + ": op " + std::to_string(i) +
                        " differs from the interpreter";
          }
        }
        if (!failure.empty()) break;
      }
    } catch (const std::exception& e) {
      failure = std::string("exception: ") + e.what();
    }
  }

  // Outside the operation's interval: time the verify calls the simulator
  // spans made internally, once per context, and attribute them.
  if (tracer != nullptr && failure.empty()) {
    std::vector<std::int64_t> verify_ns(contexts.size());
    std::vector<std::int64_t> structural_ns(contexts.size());
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      const std::int64_t t0 = tracer->now_ns();
      rsp::analysis::verify_context(contexts[c]);
      const std::int64_t t1 = tracer->now_ns();
      rsp::analysis::verify_structural(contexts[c]);
      verify_ns[c] = t1 - t0;
      structural_ns[c] = tracer->now_ns() - t1;
    }
    for (const VerifySite& site : sites) {
      const SpanRecord& parent =
          tracer->spans()[static_cast<std::size_t>(site.span)];
      const std::int64_t spent =
          verify_ns[site.context] +
          (site.structural ? structural_ns[site.context] : 0);
      tracer->attribute("analysis.verify", site.span, parent.start_ns,
                        std::min(spent, parent.end_ns - parent.start_ns));
    }
  }
  return failure;
}

}  // namespace

Outcome run_fuzz_gen(const RunOptions& options) {
  Outcome out;
  rsp::gen::FuzzOptions fuzz;
  fuzz.inject_event_bug = options.corrupt_reference;
  const std::uint64_t base = fuzz_base(options.seed);

  const auto trial = [&](std::uint64_t seed) {
    ++out.attempted;
    const rsp::gen::FuzzReport report = rsp::gen::fuzz_one(seed, fuzz);
    if (!report.ok) out.fail(report.detail);
  };

  // Set-up: the fixed warm-up trials.
  const auto setup = [&] {
    record_setup(out, [&] {
      for (const std::uint64_t seed : kWarmupSeeds) trial(seed);
    });
  };
  setup();

  if (!options.trace) {
    PhaseClock clock;
    for (std::uint64_t i = 0; clock.wall_s() < options.seconds; ++i) {
      if (static_cast<int>(out.setup_cpu_s.size()) <
          setups_due(kSetupRepetitions, clock.wall_s(), options.seconds))
        clock.exclude(setup);
      const auto start = Clock::now();
      const rsp::gen::FuzzReport report = rsp::gen::fuzz_one(base + i, fuzz);
      out.ops.push_back(
          {seconds_since(start) * 1e3, clock.wall_s(), clock.cpu_s()});
      ++out.attempted;
      if (!report.ok) out.fail(report.detail);
    }
    return out;
  }

  // Traced run: every trial replayed untraced, then traced.
  Tracer& tracer = out.tracer;
  std::vector<double> cycles, active_ratio, warnings;
  double untraced_s = 0.0;
  double total_cycles = 0.0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; seconds_since(t0) < options.seconds; ++i) {
    for (Tracer* t : {static_cast<Tracer*>(nullptr), &tracer}) {
      ReplayCounts counts;
      const auto start = Clock::now();
      const std::string failure =
          replay(base + i, t, static_cast<std::int64_t>(i),
                 options.corrupt_reference, counts);
      if (t == nullptr) untraced_s += seconds_since(start);
      ++out.attempted;
      if (!failure.empty())
        out.fail("seed " + std::to_string(base + i) + ": " + failure);
      if (t != nullptr) {
        cycles.push_back(counts.sim_cycles);
        total_cycles += counts.sim_cycles;
        active_ratio.push_back(counts.sim_cycles > 0
                                   ? counts.active_cycles / counts.sim_cycles
                                   : 0.0);
        warnings.push_back(counts.lint_warnings);
      }
    }
  }

  const LayerTable table = aggregate(tracer.spans());
  out.table = render_table(table);
  const auto layer = [&](const std::string& name, double value) {
    out.layer.emplace_back(name, value);
  };
  layer("gen.generate_ms", table.self_ms_median({"gen.generate"}));
  layer("ir.unroll_ms", table.self_ms_median({"ir.unroll"}));
  layer("ir.interp_ms", table.self_ms_median({"ir.interp"}));
  for (const char* l : {"map", "schedule", "legality"}) {
    const std::string span = std::string("sched.") + l;
    layer(span + "_ms", table.self_ms_median({span}));
    layer(span + "_calls", table.calls_median(span));
  }
  layer("analysis.verify_ms", table.self_ms_median({"analysis.verify"}));
  layer("analysis.lint_ms", table.self_ms_median({"analysis.lint"}));
  layer("analysis.lint_warnings", median(warnings));
  layer("sim.compile_self_ms", table.self_ms_median({"sim.compile"}));
  layer("sim.run_event_ms", table.self_ms_median({"sim.run_event"}));
  layer("sim.run_dense_ms", table.self_ms_median({"sim.run_dense"}));
  layer("sim.cycles", median(cycles));
  layer("sim.active_cycle_ratio", median(active_ratio));
  double run_event_s = 0.0;
  if (table.self_ms.count("sim.run_event"))
    for (const double ms : table.self_ms.at("sim.run_event"))
      run_event_s += ms / 1e3;
  layer("sim.event_cycles_per_host_s",
        run_event_s > 0 ? total_cycles / run_event_s : 0.0);
  layer("residual_ms", median(table.residual_ms));
  layer("trace.op_ms", median(table.op_ms));
  double traced_s = 0.0;
  for (const double ms : table.op_ms) traced_s += ms / 1e3;
  layer("trace.overhead_ratio", untraced_s > 0 ? traced_s / untraced_s : 0.0);
  return out;
}

}  // namespace perfbench
