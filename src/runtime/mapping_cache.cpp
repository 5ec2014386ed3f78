#include "runtime/mapping_cache.hpp"

#include <string_view>
#include <utility>

#include "runtime/eval_cache.hpp"
#include "util/hash.hpp"

namespace rsp::runtime {

std::string MappingCache::key(const kernels::Workload& w) {
  // Byte-view hashing is endianness-dependent, which is fine for an
  // in-memory memo table — the key only needs to be stable within one
  // process. Variable-length sections are length-prefixed so adjacent
  // lists cannot alias (same discipline as EvalCache::program_tag).
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto mix = [&h](std::int64_t v) {
    h = util::fnv1a(
        std::string_view(reinterpret_cast<const char*>(&v), sizeof v), h);
  };
  const auto mix_string = [&](const std::string& s) {
    mix(static_cast<std::int64_t>(s.size()));
    h = util::fnv1a(s, h);
  };

  // Mapping hints.
  mix(w.hints.lanes);
  mix(w.hints.stagger);
  mix(w.hints.columns);
  mix(w.hints.first_col);
  mix(w.hints.first_row);
  mix(w.hints.cycle_row_bands ? 1 : 0);
  // Reduction spec.
  mix(static_cast<std::int64_t>(w.reduction.scope));
  mix(w.reduction.source);
  mix_string(w.reduction.array);
  mix(w.reduction.index0);
  // Body-graph structure: kinds, same-iteration edges, carried edges,
  // immediates and memory array names in topological order. The index
  // functions themselves are opaque closures and not hashable — kernels
  // differing solely there must carry distinct names.
  mix(w.kernel.trip_count());
  const ir::DataflowGraph& body = w.kernel.body();
  mix(static_cast<std::int64_t>(body.size()));
  for (const ir::Node& node : body.nodes()) {
    mix(static_cast<std::int64_t>(node.kind));
    mix(node.imm);
    mix(static_cast<std::int64_t>(node.inputs.size()));
    for (const ir::NodeId input : node.inputs) mix(input);
    mix(static_cast<std::int64_t>(node.carried.size()));
    for (const ir::CarriedInput& carried : node.carried) {
      mix(carried.producer);
      mix(carried.distance);
      mix(carried.init);
    }
    mix_string(node.mem ? node.mem->array : std::string());
  }

  // Human-readable prefix (kernel + array spec spelled out), content hash
  // appended — the same key style as EvalCache::key.
  std::string k = w.name;
  k += '|';
  k += std::to_string(w.array.rows) + 'x' + std::to_string(w.array.cols);
  k += ";rb" + std::to_string(w.array.read_buses_per_row);
  k += ";wb" + std::to_string(w.array.write_buses_per_row);
  k += ";dw" + std::to_string(w.array.data_width_bits);
  k += '#';
  k += std::to_string(h);
  return k;
}

std::shared_ptr<const MappingRecord> MappingCache::get_or_map(
    const std::string& mapping_key, const kernels::Workload& workload) {
  return cache_.get_or_compute(mapping_key, [&workload] {
    MappingRecord record{dse::prepare_kernel(workload), {}};
    record.program_tag = EvalCache::program_tag(record.program);
    return std::make_shared<const MappingRecord>(std::move(record));
  });
}

std::shared_ptr<const core::EstimateProfile> MappingCache::get_or_profile(
    const std::string& mapping_key,
    const sched::ConfigurationContext& base_context) {
  return estimates_.get_or_compute(mapping_key, [&base_context] {
    return std::make_shared<const core::EstimateProfile>(base_context);
  });
}

}  // namespace rsp::runtime
