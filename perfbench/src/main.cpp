// perfbench — the toolchain's benchmark program.
//
//   perfbench --workload dse_cold|serve_mix|fuzz_gen --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--corrupt-reference]
//
// Runs one workload in this process. `--trace 0` measures the end-to-end
// metrics; `--trace 1` replays the workload through each layer's public
// functions with spans and reports per-layer metrics, a per-layer table and
// a Chrome Trace Event file. Every output is checked; the last line of
// standard output is the JSON result. `--corrupt-reference` is the
// self-test: one reference output is corrupted, so the run must report
// failures.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "env.hpp"
#include "report.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using rsp::util::Json;
using namespace perfbench;

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload dse_cold|serve_mix|fuzz_gen "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--corrupt-reference]\n";
  return 2;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream file(path);
  file << text << "\n";
  if (!file) throw rsp::Error("cannot write " + path.string());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      args[flag.substr(2)] = argv[++i];
    } else {
      return usage("unexpected argument '" + flag + "'");
    }
  }
  try {
    for (const auto& [key, value] : args) {
      if (key == "workload") options.workload = value;
      else if (key == "seed") options.seed = std::stoull(value);
      else if (key == "seconds") options.seconds = std::stod(value);
      else if (key == "trace") options.trace = std::stoi(value) != 0;
      else if (key == "out-dir") options.out_dir = value;
      else return usage("unknown flag --" + key);
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");
  const std::map<std::string, Outcome (*)(const RunOptions&)> workloads = {
      {"dse_cold", run_dse_cold},
      {"serve_mix", run_serve_mix},
      {"fuzz_gen", run_fuzz_gen}};
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end())
    return usage("unknown workload '" + options.workload + "'");

  const Json env = environment();
  if (!optimized_build()) {
    std::cerr << "perfbench: refusing to measure a build without NDEBUG ("
              << env.dump() << ")\n";
    return 3;
  }

  try {
    const double burn_ms = calibration_burn_ms();
    const Outcome outcome = workload->second(options);

    TailPercentile tail;
    const std::vector<Metric> metrics =
        options.trace ? layer_metric_values(outcome, burn_ms)
                      : end_to_end_metrics(outcome);
    const std::vector<Metric> recorded =
        options.trace ? std::vector<Metric>{}
                      : recorded_metrics(outcome, peak_rss_mb(), tail);
    const double error_rate =
        outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                    static_cast<double>(outcome.attempted)
                              : 0.0;

    // The record of this run, beside the one-line result.
    Json record = Json::object();
    record.set("workload", Json(options.workload));
    record.set("seed", Json(static_cast<std::int64_t>(options.seed)));
    record.set("seconds", Json(options.seconds));
    record.set("trace", Json(options.trace));
    record.set("environment", env);
    record.set("calib.burn_ms", Json(burn_ms));
    record.set("error_rate", Json(error_rate));
    if (!options.trace) {
      Json values = Json::object();
      for (const Metric& m : recorded) values.set(m.name, Json(m.value));
      record.set("recorded", std::move(values));
      Json t = Json::object();
      t.set("percentile", Json(tail.percentile));
      t.set("beyond", Json(tail.beyond));
      t.set("samples", Json(tail.samples));
      record.set("latency_tail", std::move(t));
    }
    Json failures = Json::array();
    for (const std::string& f : outcome.failures) failures.push(Json(f));
    record.set("failures", std::move(failures));
    const Json line = result_line(outcome, metrics);
    record.set("result", line);

    const std::string stem = options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0");
    const std::filesystem::path dir =
        std::filesystem::path(options.out_dir) / "perfbench-results";
    write_file(dir / (stem + ".json"), record.dump(true));

    std::cout << "environment " << env.dump() << "\n"
              << "calib.burn_ms " << burn_ms << "\n"
              << "error_rate " << error_rate << " (" << outcome.failed << " of "
              << outcome.attempted << ")\n";
    for (const std::string& f : outcome.failures)
      std::cout << "failure: " << f << "\n";
    if (options.trace) {
      const std::filesystem::path trace_path = dir / (stem + ".trace.json");
      std::ofstream trace_file(trace_path);
      outcome.tracer.write_chrome_trace(trace_file);
      if (!trace_file) throw rsp::Error("cannot write " + trace_path.string());
      std::cout << "per-layer table (" << options.workload
                << ", self time per operation):\n"
                << outcome.table << "trace written to " << trace_path.string()
                << "\n";
    } else {
      std::cout << "latency_tail_ms is p" << tail.percentile << " with "
                << tail.beyond << " of " << tail.samples
                << " samples beyond it\n";
    }
    for (const Metric& m : metrics)
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    for (const Metric& m : recorded)
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                << " (recorded, not gated)\n";
    std::cout << line.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
