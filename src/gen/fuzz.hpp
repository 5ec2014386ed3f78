// Differential fuzzing harness over the generated-kernel family.
//
// `fuzz_one(seed)` drives gen::generate_workload(seed) through the whole
// toolchain — map, schedule, lint, simulate — and checks the simulator
// against the reference interpreter on a rotating subset of the standard
// architecture suite, per DatapathMode (kExact and kWrap16):
//
//   * simulator final memory == reference-interpreter final memory
//     (including the reduction epilogue);
//   * per-op simulator values == interpreter values, matched through
//     ScheduledOp::source.
//
// Any divergence, scheduling failure or unexpected exception produces a
// FuzzReport whose seed reproduces the failure standalone
// (`rsp_cli fuzz --trials 1 --seed <seed>`); fuzz_many runs seeds
// base, base+1, ... so a failing trial's printed seed is all that is needed.
// `tests/data/gen_corpus/` holds previously-failing seeds replayed by ctest
// and CI.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen/generator.hpp"

namespace rsp::gen {

struct FuzzOptions {
  /// Generation knobs; `config.seed` is overwritten by the trial seed.
  GeneratorConfig config;
  /// Architectures checked per trial: Base plus up to (max_archs - 1)
  /// seed-rotated sharing designs. Across many trials the rotation covers
  /// the whole standard suite.
  int max_archs = 3;
  /// Check every design of the standard suite (corpus replay uses this).
  bool full_suite = false;
  /// Harness self-test: corrupt the simulator's final memory so a
  /// demonstration test can prove a simulator bug would be caught.
  bool inject_event_bug = false;
};

struct FuzzReport {
  std::uint64_t seed = 0;
  bool ok = true;
  std::string detail;  ///< empty when ok; names arch/mode/check otherwise
};

/// One complete differential trial. Never throws: failures (including
/// exceptions out of the toolchain) are reported in the FuzzReport.
FuzzReport fuzz_one(std::uint64_t seed, const FuzzOptions& options = {});

struct FuzzSummary {
  std::int64_t trials = 0;
  std::vector<FuzzReport> failures;
};

/// Runs trials with seeds base_seed, base_seed + 1, ... base_seed + trials
/// - 1. `on_trial`, when set, observes every report (progress/logging).
FuzzSummary fuzz_many(
    std::uint64_t base_seed, std::int64_t trials,
    const FuzzOptions& options = {},
    const std::function<void(const FuzzReport&)>& on_trial = {});

/// End-to-end smoke of the `gen:<seed>` catalogue path through
/// api::Service: eval, simulate, simulate_batch and a small dse run must
/// all succeed and match golden. Reported like a fuzz trial.
FuzzReport service_smoke(std::uint64_t seed);

/// Loads a regression corpus: `path` is either one seed file or a directory
/// whose *.txt files are read in sorted order. Seed files hold one decimal
/// seed per line; blank lines and '#' comments are ignored. Throws
/// NotFoundError when the path does not exist and InvalidArgumentError on a
/// malformed line.
std::vector<std::uint64_t> load_corpus(const std::string& path);

}  // namespace rsp::gen
