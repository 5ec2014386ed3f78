#include "env.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMMIT
#define PERFBENCH_COMMIT "unknown"
#endif

namespace perfbench {

bool optimized_build() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

rsp::util::Json environment() {
  using rsp::util::Json;
  Json env = Json::object();
  env.set("nproc", Json(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
#if defined(__clang__)
  env.set("compiler", Json(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  env.set("compiler", Json(std::string("gcc ") + __VERSION__));
#else
  env.set("compiler", Json("unknown"));
#endif
  env.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  env.set("ndebug", Json(optimized_build()));
  env.set("commit", Json(PERFBENCH_COMMIT));
  return env;
}

double calibration_burn_ms() {
  // xorshift64 over a fixed iteration count: no memory traffic, no
  // allocation, no syscalls — only the core's speed and its contention.
  const auto start = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return seconds_since(start) * 1e3;
}

double cpu_seconds() {
  // The same user + system total as getrusage, but at nanosecond resolution:
  // getrusage can advance in whole scheduler ticks (4 ms), as much as a
  // small set-up costs.
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
