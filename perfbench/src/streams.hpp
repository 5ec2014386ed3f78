// Seeded inputs of the three workloads. Everything a workload sends to the
// toolchain comes from here and depends only on the benchmark seed (and the
// operation index), so one seed always yields byte-identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// Splitmix64 of (a, b): independent streams per (seed, index).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// The catalogue kernels on the paper's 8x8 array, in catalogue order.
std::vector<std::string> array8x8_kernels();

// ------------------------------------------------------------- dse_cold

/// Domain pool: thirteen groups, each the paper's nine-kernel domain
/// followed by one domain of each size 3..9. The 91 drawn domains are
/// subsets of the 8x8 catalogue kernels in which every kernel appears
/// equally often per size (catalogue order within a domain).
std::vector<std::vector<std::string>> dse_domain_pool(std::uint64_t seed);

// ------------------------------------------------------------ serve_mix

/// Request classes of the serve mix; `kEvalGen` is an `eval` of a
/// never-seen `gen:<seed>` kernel.
enum class ServeClass {
  kEval,
  kSimulate,
  kMap,
  kSimulateBatch,
  kLint,
  kDse,
  kEvalGen,
};
inline constexpr int kServeClasses = 7;

struct ServeRequest {
  ServeClass cls = ServeClass::kEval;
  rsp::util::Json payload;  ///< {"op": ..., fields} without the envelope
  int catalogue_index = -1;  ///< position in serve_catalogue(); -1 for gen:
};

/// Every distinct catalogue request the mix draws from (all but kEvalGen);
/// warm-up answers each once.
std::vector<ServeRequest> serve_catalogue(std::uint64_t seed);

/// Request `index` of the stream: about 30% eval, 20% simulate, 15% map,
/// 15% simulate_batch, 10% lint, 5% 2-kernel dse (drawn from `catalogue`)
/// and 5% eval of gen:<mix(seed, index)>.
ServeRequest serve_request(std::uint64_t seed, std::uint64_t index,
                           const std::vector<ServeRequest>& catalogue);

/// The v2 request line: envelope (protocol_version, id) + payload.
std::string request_line(const ServeRequest& request, std::int64_t id);

// ------------------------------------------------------------- fuzz_gen

/// First fuzz trial seed; trial i runs gen::fuzz_one(fuzz_base(seed) + i).
std::uint64_t fuzz_base(std::uint64_t seed);

}  // namespace perfbench
