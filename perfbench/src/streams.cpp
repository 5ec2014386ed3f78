#include "streams.hpp"

#include <algorithm>

#include "arch/presets.hpp"
#include "gen/generator.hpp"
#include "kernels/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using rsp::util::Json;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::string> array8x8_kernels() {
  std::vector<std::string> names;
  for (const rsp::kernels::Workload& w : rsp::kernels::full_catalogue())
    if (w.array.rows == 8 && w.array.cols == 8) names.push_back(w.name);
  return names;
}

std::vector<std::vector<std::string>> dse_domain_pool(std::uint64_t seed) {
  std::vector<std::vector<std::string>> pool;
  std::vector<std::string> paper;
  for (const rsp::kernels::Workload& w : rsp::kernels::paper_suite())
    paper.push_back(w.name);

  // For each size, the windows of a seeded cyclic permutation: every kernel
  // appears equally often, so every seed's pool carries the same sizes and
  // the same kernels, and only which kernels share a domain is drawn.
  const std::vector<std::string> names = array8x8_kernels();
  const std::size_t n = names.size();
  rsp::util::Rng rng(mix(seed, 0xd5e));
  std::vector<std::vector<std::vector<std::string>>> by_size;
  for (std::size_t size = 3; size <= 9; ++size) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    std::vector<std::vector<std::string>> windows;
    for (std::size_t start = 0; start < n; ++start) {
      std::vector<std::size_t> picks;
      for (std::size_t k = 0; k < size; ++k)
        picks.push_back(order[(start + k) % n]);
      std::sort(picks.begin(), picks.end());
      std::vector<std::string> domain;
      for (const std::size_t p : picks) domain.push_back(names[p]);
      windows.push_back(std::move(domain));
    }
    by_size.push_back(std::move(windows));
  }
  // Interleaved by size, so any stretch of the cycle mixes all sizes, and
  // the paper domain leads every group of seven.
  for (std::size_t start = 0; start < n; ++start) {
    pool.push_back(paper);
    for (auto& windows : by_size) pool.push_back(std::move(windows[start]));
  }
  return pool;
}

namespace {

Json op_payload(const char* op) {
  Json payload = Json::object();
  payload.set("op", Json(op));
  return payload;
}

}  // namespace

std::vector<ServeRequest> serve_catalogue(std::uint64_t seed) {
  const std::vector<std::string> kernels = array8x8_kernels();
  std::vector<std::string> archs;
  for (const rsp::arch::Architecture& a : rsp::arch::standard_suite())
    archs.push_back(a.name);

  std::vector<ServeRequest> out;
  for (const std::string& k : kernels) {
    Json eval = op_payload("eval");
    eval.set("kernel", Json(k));
    out.push_back({ServeClass::kEval, std::move(eval), -1});
    Json batch = op_payload("simulate_batch");
    batch.set("kernel", Json(k));
    out.push_back({ServeClass::kSimulateBatch, std::move(batch), -1});
    Json lint = op_payload("lint");
    lint.set("kernel", Json(k));
    out.push_back({ServeClass::kLint, std::move(lint), -1});
    for (const std::string& a : archs) {
      Json sim = op_payload("simulate");
      sim.set("kernel", Json(k));
      sim.set("arch", Json(a));
      out.push_back({ServeClass::kSimulate, std::move(sim), -1});
      Json map = op_payload("map");
      map.set("kernel", Json(k));
      map.set("arch", Json(a));
      out.push_back({ServeClass::kMap, std::move(map), -1});
    }
  }
  // Six seed-drawn kernel pairs for the 2-kernel dse requests.
  rsp::util::Rng rng(mix(seed, 0x5e7));
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  const auto last = static_cast<std::int64_t>(kernels.size()) - 1;
  while (pairs.size() < 6) {
    auto a = static_cast<std::size_t>(rng.uniform(0, last));
    auto b = static_cast<std::size_t>(rng.uniform(0, last));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (std::find(pairs.begin(), pairs.end(), std::make_pair(a, b)) !=
        pairs.end())
      continue;
    pairs.emplace_back(a, b);
    Json dse = op_payload("dse");
    Json names = Json::array();
    names.push(Json(kernels[a]));
    names.push(Json(kernels[b]));
    dse.set("kernels", std::move(names));
    out.push_back({ServeClass::kDse, std::move(dse), -1});
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i].catalogue_index = static_cast<int>(i);
  return out;
}

ServeRequest serve_request(std::uint64_t seed, std::uint64_t index,
                           const std::vector<ServeRequest>& catalogue) {
  rsp::util::Rng rng(mix(seed, index));
  const std::int64_t u = rng.uniform(0, 99);
  ServeClass cls = ServeClass::kEvalGen;
  if (u < 30) cls = ServeClass::kEval;
  else if (u < 50) cls = ServeClass::kSimulate;
  else if (u < 65) cls = ServeClass::kMap;
  else if (u < 80) cls = ServeClass::kSimulateBatch;
  else if (u < 90) cls = ServeClass::kLint;
  else if (u < 95) cls = ServeClass::kDse;

  if (cls == ServeClass::kEvalGen) {
    Json eval = op_payload("eval");
    eval.set("kernel", Json(rsp::gen::gen_name(mix(seed ^ 0x6e6, index))));
    return {cls, std::move(eval), -1};
  }
  std::vector<const ServeRequest*> pool;
  for (const ServeRequest& r : catalogue)
    if (r.cls == cls) pool.push_back(&r);
  if (pool.empty())
    throw rsp::InvalidArgumentError("perfbench: empty serve request pool");
  const auto pick = static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1));
  return *pool[pick];
}

std::string request_line(const ServeRequest& request, std::int64_t id) {
  Json line = Json::object();
  line.set("protocol_version", Json(2));
  line.set("id", Json(id));
  line.merge(request.payload);
  return line.dump();
}

std::uint64_t fuzz_base(std::uint64_t seed) {
  // 32 bits keep base + i far from wrap-around for any run length.
  return mix(seed, 0xf22) >> 32;
}

}  // namespace perfbench
