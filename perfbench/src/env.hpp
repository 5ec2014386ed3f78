// Environment guard, calibration and process resource readings.
#pragma once

#include <chrono>
#include <string>

#include "util/json.hpp"

namespace perfbench {

/// True when this program was compiled with NDEBUG. The toolchain libraries
/// are configured in the same CMake build, so a program without NDEBUG means
/// a Debug build, which measures a different program.
bool optimized_build();

/// nproc, compiler, build type and commit of the measured build.
rsp::util::Json environment();

/// A fixed single-thread CPU burn, in milliseconds of wall time. Recorded
/// before each workload: a busy neighbour on a shared machine shows up as a
/// slower burn.
double calibration_burn_ms();

/// Process user + system CPU seconds so far, all threads.
double cpu_seconds();

/// Process peak resident set in MB (ru_maxrss).
double peak_rss_mb();

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
