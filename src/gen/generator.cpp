#include "gen/generator.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "ir/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsp::gen {

namespace {

// The generator's fixed shape: bounds of the PE-array geometry, trip count
// and body size it draws from the seed's stream. Changing any constant here
// changes most gen:<seed> workloads.
constexpr int kMinRows = 4;
constexpr int kMaxRows = 8;
constexpr int kMinCols = 4;  // >= 2: reductions need lanes x columns >= 2
constexpr int kMaxCols = 8;
constexpr std::int64_t kMinTrips = 4;
constexpr std::int64_t kMaxTrips = 64;
constexpr int kMinBodyOps = 3;  // arithmetic/load nodes beyond the first loads
constexpr int kMaxBodyOps = 16;

// Relative op-kind weights of a body node.
constexpr int kAddWeight = 20;
constexpr int kSubWeight = 15;
constexpr int kMultWeight = 25;
constexpr int kAbsWeight = 10;
constexpr int kShiftWeight = 10;
constexpr int kLoadWeight = 12;
constexpr int kConstantWeight = 8;
constexpr int kTotalWeight = kAddWeight + kSubWeight + kMultWeight +
                             kAbsWeight + kShiftWeight + kLoadWeight +
                             kConstantWeight;

// Chance of a global (kAll) reduction epilogue, and of a second store (to
// a distinct array).
constexpr double kReductionProbability = 0.35;
constexpr double kSecondStoreProbability = 0.25;

// Local seeded data (FNV-1a of the array name mixed into the kernel seed).
// Intentionally not kernels::deterministic_data: rsp_kernels links rsp_gen
// for `gen:<seed>` catalogue resolution, so the generator cannot link back.
std::vector<std::int64_t> seeded_data(std::uint64_t seed,
                                      const std::string& tag,
                                      std::size_t length, std::int64_t lo,
                                      std::int64_t hi) {
  std::uint64_t mixed = 1469598103934665603ull ^ seed;
  for (char c : tag) {
    mixed ^= static_cast<std::uint8_t>(c);
    mixed *= 1099511628211ull;
  }
  util::Rng rng(mixed);
  std::vector<std::int64_t> data(length);
  for (auto& v : data) v = rng.uniform(lo, hi);
  return data;
}

struct PoolEntry {
  ir::NodeId id = ir::kInvalidNode;
  std::int64_t bound = 0;  ///< upper bound on the value's magnitude
};

// Renormalises a node whose magnitude bound exceeds kNodeMagnitudeCap with
// one arithmetic right shift, keeping exact-mode evaluation clear of signed
// overflow no matter how ops are composed downstream.
PoolEntry normalized(ir::GraphBuilder& b, PoolEntry e) {
  if (e.bound <= kNodeMagnitudeCap) return e;
  int s = 1;
  while ((e.bound >> s) > kNodeMagnitudeCap) ++s;
  e.id = b.shift(e.id, -s);
  // |x >> s| <= (|x| >> s) + 1 for arithmetic shifts of negative values.
  e.bound = (e.bound >> s) + 1;
  return e;
}

}  // namespace

void GeneratorConfig::validate() const {
  if (value_magnitude < 1 || value_magnitude > (std::int64_t{1} << 20))
    throw InvalidArgumentError(
        "generator: value_magnitude must be in [1, 2^20]");
}

std::string gen_name(std::uint64_t seed) {
  return "gen:" + std::to_string(seed);
}

std::optional<std::uint64_t> parse_gen_name(const std::string& name) {
  constexpr const char kPrefix[] = "gen:";
  constexpr std::size_t kPrefixLen = 4;
  if (name.size() <= kPrefixLen || name.compare(0, kPrefixLen, kPrefix) != 0)
    return std::nullopt;
  const std::string digits = name.substr(kPrefixLen);
  if (digits.size() > 20) return std::nullopt;  // > max uint64 digit count
  for (char c : digits)
    if (c < '0' || c > '9') return std::nullopt;
  try {
    std::size_t parsed = 0;
    const unsigned long long value = std::stoull(digits, &parsed);
    if (parsed != digits.size()) return std::nullopt;
    return static_cast<std::uint64_t>(value);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

kernels::Workload generate_workload(const GeneratorConfig& config) {
  config.validate();
  util::Rng rng(config.seed);
  const std::int64_t mag = config.value_magnitude;

  // Geometry, trip count and layout first: the reduction's carried distance
  // depends on lanes x columns, so the mapping is fixed before the body.
  arch::ArraySpec array;
  array.rows = static_cast<int>(rng.uniform(kMinRows, kMaxRows));
  array.cols = static_cast<int>(rng.uniform(kMinCols, kMaxCols));
  const std::int64_t trips = rng.uniform(kMinTrips, kMaxTrips);

  sched::MappingHints hints;
  hints.lanes = static_cast<int>(rng.uniform(1, array.rows));
  hints.columns = static_cast<int>(rng.uniform(1, array.cols));
  hints.stagger = static_cast<int>(rng.uniform(0, 3));

  const bool reduce = rng.chance(kReductionProbability);
  // An accumulator chain must span >= 2 PEs to reduce; widen the column
  // round-robin if lanes x columns collapsed to a single PE.
  if (reduce && hints.lanes * hints.columns < 2) hints.columns = 2;
  // Row-band cycling moves iteration i + lanes*columns to a different PE
  // band, which would break the accumulator's same-PE carried chain.
  hints.cycle_row_bands =
      !reduce && hints.lanes < array.rows && rng.chance(0.5);

  ir::GraphBuilder b;
  std::vector<PoolEntry> pool;
  std::map<std::string, std::int64_t> input_sizes;

  const auto pick = [&]() -> const PoolEntry& {
    return pool[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  const int n_arrays = static_cast<int>(rng.uniform(1, 3));
  const auto new_load = [&] {
    const std::string name =
        "in" + std::to_string(rng.uniform(0, n_arrays - 1));
    const std::int64_t stride = rng.uniform(0, 2);  // 0 = broadcast element
    const std::int64_t offset = rng.uniform(0, 8);
    const ir::NodeId id =
        b.load(name, [stride, offset](std::int64_t k) {
          return stride * k + offset;
        });
    std::int64_t& size = input_sizes[name];
    size = std::max(size, stride * (trips - 1) + offset + 1);
    pool.push_back(PoolEntry{id, mag});
  };

  const int n_init_loads = static_cast<int>(rng.uniform(1, 3));
  for (int i = 0; i < n_init_loads; ++i) new_load();

  const int n_ops = static_cast<int>(rng.uniform(kMinBodyOps, kMaxBodyOps));
  for (int i = 0; i < n_ops; ++i) {
    std::int64_t w = rng.uniform(0, kTotalWeight - 1);
    if ((w -= kAddWeight) < 0) {
      const PoolEntry a = pick(), c = pick();
      pool.push_back(
          normalized(b, {b.add(a.id, c.id), a.bound + c.bound}));
    } else if ((w -= kSubWeight) < 0) {
      const PoolEntry a = pick(), c = pick();
      pool.push_back(
          normalized(b, {b.sub(a.id, c.id), a.bound + c.bound}));
    } else if ((w -= kMultWeight) < 0) {
      // Pool bounds never exceed kNodeMagnitudeCap (2^26), so the product
      // bound stays below 2^52 — exact int64 arithmetic cannot overflow.
      const PoolEntry a = pick(), c = pick();
      pool.push_back(
          normalized(b, {b.mult(a.id, c.id), a.bound * c.bound}));
    } else if ((w -= kAbsWeight) < 0) {
      const PoolEntry a = pick();
      pool.push_back(PoolEntry{b.abs(a.id), a.bound});
    } else if ((w -= kShiftWeight) < 0) {
      std::int64_t amount = rng.uniform(-3, 3);
      if (amount == 0) amount = 1;
      const PoolEntry a = pick();
      const std::int64_t bound =
          amount > 0 ? (a.bound << amount) : a.bound;
      pool.push_back(normalized(
          b, {b.shift(a.id, static_cast<int>(amount)), bound}));
    } else if ((w -= kLoadWeight) < 0) {
      new_load();
    } else {
      const std::int64_t imm = rng.uniform(-mag, mag);
      pool.push_back(PoolEntry{b.constant(imm), mag});
    }
  }

  sched::ReductionSpec reduction;
  std::vector<std::pair<std::string, std::int64_t>> output_sizes;
  bool store_body = true;
  if (reduce) {
    const PoolEntry operand = pick();
    const int distance = hints.lanes * hints.columns;
    reduction.scope = sched::ReductionSpec::Scope::kAll;
    reduction.source = b.accumulate(operand.id, 0, distance);
    reduction.array = "red";
    reduction.index0 = 0;
    output_sizes.emplace_back("red", 1);
    store_body = rng.chance(0.5);
  }
  if (store_body) {
    b.store("out", [](std::int64_t k) { return k; }, pool.back().id);
    output_sizes.emplace_back("out", trips);
    if (rng.chance(kSecondStoreProbability)) {
      b.store("out2", [](std::int64_t k) { return k; }, pick().id);
      output_sizes.emplace_back("out2", trips);
    }
  }

  const std::string name = gen_name(config.seed);
  ir::LoopKernel kernel(name, b.take(), trips);

  std::vector<std::pair<std::string, std::int64_t>> inputs(
      input_sizes.begin(), input_sizes.end());
  const std::uint64_t seed = config.seed;
  auto setup = [inputs, output_sizes, seed, mag](ir::Memory& m) {
    for (const auto& [arr, size] : inputs)
      m.set(arr, seeded_data(seed, arr, static_cast<std::size_t>(size), -mag,
                             mag));
    for (const auto& [arr, size] : output_sizes)
      m.allocate(arr, static_cast<std::size_t>(size));
  };

  auto golden = [kernel, reduction](ir::Memory& m) {
    const ir::UnrolledGraph unrolled(kernel);
    reference_run(kernel, reduction, unrolled, m, ir::DatapathMode::kExact);
  };

  return kernels::Workload{name,      std::move(kernel),  array, hints,
                           reduction, std::move(setup),   std::move(golden)};
}

ir::InterpResult reference_run(const ir::LoopKernel& kernel,
                               const sched::ReductionSpec& reduction,
                               const ir::UnrolledGraph& unrolled,
                               ir::Memory& memory, ir::DatapathMode mode) {
  const ir::InterpResult result = ir::interpret(unrolled, memory, mode);
  if (!reduction.enabled()) return result;
  if (reduction.scope != sched::ReductionSpec::Scope::kAll)
    throw InvalidArgumentError(
        "reference_run supports kAll reductions only (the generator never "
        "emits kPerRow)");
  const ir::Node& source = kernel.body().node(reduction.source);
  RSP_ASSERT_MSG(!source.carried.empty(),
                 "reduction source must be a carried accumulator");
  const std::int64_t distance = source.carried.front().distance;
  const std::int64_t trips = kernel.trip_count();
  // One partial per residue class modulo the carried distance (= per PE of
  // the accumulator chain); the class's final value is its last iteration.
  std::int64_t total = 0;
  for (std::int64_t r = 0; r < std::min(distance, trips); ++r) {
    std::int64_t last = r;
    while (last + distance < trips) last += distance;
    total += result.values[static_cast<std::size_t>(
        unrolled.id_of(reduction.source, last))];
  }
  // The mapper's reduction tree adds on the 16-bit datapath; modular
  // addition is associative, so wrapping the plain sum once is enough.
  if (mode == ir::DatapathMode::kWrap16)
    total = static_cast<std::int16_t>(static_cast<std::uint64_t>(total));
  memory.write(reduction.array, reduction.index0, total);
  return result;
}

void reference_execute(const kernels::Workload& w, ir::Memory& memory,
                       ir::DatapathMode mode) {
  const ir::UnrolledGraph unrolled(w.kernel);
  reference_run(w.kernel, w.reduction, unrolled, memory, mode);
}

}  // namespace rsp::gen
