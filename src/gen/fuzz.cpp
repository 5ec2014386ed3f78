#include "gen/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/verifier.hpp"
#include "api/service.hpp"
#include "arch/presets.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/program.hpp"
#include "util/error.hpp"

namespace rsp::gen {

namespace {

const char* mode_name(ir::DatapathMode mode) {
  return mode == ir::DatapathMode::kExact ? "exact" : "wrap16";
}

std::string fail_prefix(std::uint64_t seed, const std::string& arch,
                        ir::DatapathMode mode) {
  return "seed " + std::to_string(seed) + " on " + arch + " (" +
         mode_name(mode) + "): ";
}

// Base first, then up to (max_archs - 1) sharing designs rotated by the
// seed, so consecutive trials walk the whole standard suite.
std::vector<std::size_t> arch_indices(std::uint64_t seed,
                                      std::size_t suite_size,
                                      const FuzzOptions& options) {
  std::vector<std::size_t> indices;
  if (options.full_suite) {
    for (std::size_t i = 0; i < suite_size; ++i) indices.push_back(i);
    return indices;
  }
  indices.push_back(0);
  const std::size_t sharing = suite_size - 1;
  const std::size_t limit =
      static_cast<std::size_t>(std::max(1, options.max_archs));
  for (const std::uint64_t pick : {seed % sharing, (seed / sharing) % sharing}) {
    const std::size_t index = 1 + static_cast<std::size_t>(pick);
    if (indices.size() < limit &&
        std::find(indices.begin(), indices.end(), index) == indices.end())
      indices.push_back(index);
  }
  return indices;
}

}  // namespace

FuzzReport fuzz_one(std::uint64_t seed, const FuzzOptions& options) {
  FuzzReport report;
  report.seed = seed;
  try {
    GeneratorConfig config = options.config;
    config.seed = seed;
    const kernels::Workload w = generate_workload(config);
    const ir::UnrolledGraph unrolled(w.kernel);

    ir::Memory initial;
    w.setup(initial);

    // The interpreter is the semantic authority; one reference run per
    // datapath mode, shared across every architecture below.
    const ir::DatapathMode modes[] = {ir::DatapathMode::kExact,
                                      ir::DatapathMode::kWrap16};
    ir::Memory reference_memory[2] = {initial, initial};
    ir::InterpResult reference_values[2];
    for (int m = 0; m < 2; ++m)
      reference_values[m] = reference_run(w.kernel, w.reduction, unrolled,
                                          reference_memory[m], modes[m]);

    const sched::LoopPipeliner mapper(w.array);
    const sched::PlacedProgram program =
        mapper.map(w.kernel, unrolled, w.hints, w.reduction);
    const sched::ContextScheduler scheduler;

    const std::vector<arch::Architecture> suite =
        arch::standard_suite(w.array.rows, w.array.cols);
    for (const std::size_t index : arch_indices(seed, suite.size(), options)) {
      const arch::Architecture& a = suite[index];
      const sched::ConfigurationContext ctx = scheduler.schedule(program, a);
      // One engine call per context: the full lint. Any error or
      // hardware-rule finding (analysis::kHardwareRules) means the
      // scheduler emitted a context the array cannot run. Lint-only
      // warnings are expected — generated kernels legitimately carry dead
      // address-chain ops (RSP-W002).
      const analysis::LegalityReport legality =
          analysis::legality_of(analysis::lint_context(ctx));
      if (!legality.ok) {
        report.ok = false;
        report.detail = "seed " + std::to_string(seed) + " on " + a.name +
                        ": illegal schedule: " + legality.violations.front();
        return report;
      }

      // Compiled once, run in both datapath modes.
      const sim::SimProgram compiled = sim::SimProgram::compile(ctx);
      for (int m = 0; m < 2; ++m) {
        const ir::DatapathMode mode = modes[m];
        ir::Memory memory = initial;
        const sim::SimResult result = compiled.run(memory, mode);
        if (options.inject_event_bug) {
          // names() returns by value; copy the name out of the temporary.
          const std::string array = memory.names().front();
          memory.write(array, 0, memory.read(array, 0) + 1);
        }

        if (!(memory == reference_memory[m])) {
          report.ok = false;
          report.detail = fail_prefix(seed, a.name, mode) +
                          "simulator final memory diverges from the "
                          "reference interpreter";
          return report;
        }
        // Value-level check: every scheduled op that carries a source link
        // into the unrolled graph must compute the interpreter's value.
        const std::vector<sched::ScheduledOp>& ops = ctx.ops();
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const sched::ScheduledOp& op = ops[i];
          if (op.source == ir::kInvalidOp || !ir::produces_value(op.kind) ||
              op.kind == ir::OpKind::kRoute)
            continue;
          const std::int64_t expected = reference_values[m].values[
              static_cast<std::size_t>(op.source)];
          if (result.values[i] != expected) {
            report.ok = false;
            report.detail = fail_prefix(seed, a.name, mode) + "op " +
                            std::to_string(i) + " value " +
                            std::to_string(result.values[i]) +
                            " != interpreter value " +
                            std::to_string(expected);
            return report;
          }
        }
      }
    }
  } catch (const std::exception& e) {
    report.ok = false;
    report.detail =
        "seed " + std::to_string(seed) + ": exception: " + e.what();
  }
  return report;
}

FuzzSummary fuzz_many(
    std::uint64_t base_seed, std::int64_t trials, const FuzzOptions& options,
    const std::function<void(const FuzzReport&)>& on_trial) {
  FuzzSummary summary;
  for (std::int64_t i = 0; i < trials; ++i) {
    FuzzReport report = fuzz_one(base_seed + static_cast<std::uint64_t>(i),
                                 options);
    ++summary.trials;
    if (on_trial) on_trial(report);
    if (!report.ok) summary.failures.push_back(std::move(report));
  }
  return summary;
}

FuzzReport service_smoke(std::uint64_t seed) {
  FuzzReport report;
  report.seed = seed;
  const auto fail = [&](const std::string& what) {
    report.ok = false;
    report.detail =
        "seed " + std::to_string(seed) + ": service smoke: " + what;
    return report;
  };
  try {
    api::ServiceOptions options;
    options.max_inflight = 2;
    const api::Service service(options);
    const std::string name = gen_name(seed);

    const api::EvalResponse eval = service.eval({name});
    if (eval.kernel != name ||
        eval.rows.size() != arch::standard_suite().size())
      return fail("eval returned an unexpected row set");

    if (!service.simulate({name, "RSP#4"}).matches_golden)
      return fail("simulate does not match golden");

    const api::SimulateBatchResponse batch =
        service.simulate_batch({name, {}});
    for (const api::SimulateResponse& row : batch.rows)
      if (!row.matches_golden)
        return fail("simulate_batch row " + row.arch +
                    " does not match golden");

    dse::ExplorerConfig config;
    config.max_units_per_row = 1;
    config.max_units_per_col = 1;
    config.max_stages = 2;
    const api::DseResponse dse = service.dse({{name}, config});
    if (dse.result.candidates.empty())
      return fail("dse explored no candidates");
  } catch (const std::exception& e) {
    return fail(std::string("exception: ") + e.what());
  }
  return report;
}

namespace {

void load_corpus_file(const std::filesystem::path& path,
                      std::vector<std::uint64_t>& seeds) {
  std::ifstream file(path);
  if (!file)
    throw NotFoundError("cannot open corpus file '" + path.string() + "'");
  std::string line;
  while (std::getline(file, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    const std::string token = line.substr(begin, end - begin + 1);
    const std::optional<std::uint64_t> seed = parse_gen_name("gen:" + token);
    if (!seed)
      throw InvalidArgumentError("corpus file '" + path.string() +
                                 "': '" + token + "' is not a seed");
    seeds.push_back(*seed);
  }
}

}  // namespace

std::vector<std::uint64_t> load_corpus(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::uint64_t> seeds;
  if (fs::is_directory(path)) {
    std::vector<fs::path> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(path))
      if (entry.path().extension() == ".txt") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) load_corpus_file(file, seeds);
  } else if (fs::exists(path)) {
    load_corpus_file(path, seeds);
  } else {
    throw NotFoundError("corpus path '" + path + "' does not exist");
  }
  return seeds;
}

}  // namespace rsp::gen
