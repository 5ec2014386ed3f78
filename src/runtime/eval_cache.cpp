#include "runtime/eval_cache.hpp"

#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace rsp::runtime {

std::string EvalCache::program_tag(const sched::PlacedProgram& program) {
  // Hash of the program fields the scheduler reads, one mix64 step per
  // field. mix64 is a bijection, so with the field layout fixed, changing
  // any one field changes the tag.
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto mix = [&h](std::int64_t v) {
    h = util::mix64(h ^ static_cast<std::uint64_t>(v));
  };
  // Each interned array name is hashed once; an op naming no array mixes
  // the hash of "".
  std::vector<std::uint64_t> name_hash;
  name_hash.reserve(program.array_names().size());
  for (const std::string& name : program.array_names())
    name_hash.push_back(util::fnv1a(name));
  for (sched::ProgIndex i = 0; i < program.size(); ++i) {
    const arch::PeCoord pe = program.pe(i);
    const ir::ArrayId array = program.array_id(i);
    mix(static_cast<std::int64_t>(program.kind(i)));
    mix(pe.row);
    mix(pe.col);
    mix(program.priority(i));
    mix(program.imm(i));
    mix(program.address(i));
    mix(program.not_before(i));
    mix(static_cast<std::int64_t>(
        array == ir::kNoArray ? util::fnv1a("")
                              : name_hash[static_cast<std::size_t>(array)]));
    // Variable-length sections are length-prefixed so, e.g., an operand
    // list {5, 0} and an order_deps list [5, 0] cannot alias.
    const std::span<const sched::ProgOperand> operands = program.operands(i);
    mix(static_cast<std::int64_t>(operands.size()));
    for (const sched::ProgOperand& operand : operands) {
      mix(operand.producer);
      mix(operand.imm);
    }
    const std::span<const sched::ProgIndex> deps = program.order_deps(i);
    mix(static_cast<std::int64_t>(deps.size()));
    for (const sched::ProgIndex dep : deps) mix(dep);
  }
  return std::to_string(h);
}

namespace {

// Canonical, human-readable fingerprint of the architecture parameters
// that influence scheduling and estimation: every field the scheduler,
// estimator or clock model reads. Cosmetic fields (the name) are excluded
// so a preset ("RSP#2") and an identically-parameterised custom design
// share one fingerprint.
std::string arch_fingerprint(const arch::Architecture& a) {
  std::string k;
  k += std::to_string(a.array.rows) + 'x' + std::to_string(a.array.cols);
  k += ";rb" + std::to_string(a.array.read_buses_per_row);
  k += ";wb" + std::to_string(a.array.write_buses_per_row);
  k += ";dw" + std::to_string(a.array.data_width_bits);
  k += ";pe";
  k += a.pe.has_multiplier ? 'm' : '-';
  k += a.pe.has_bus_switch ? 's' : '-';
  k += a.pe.has_pipeline_regs ? 'p' : '-';
  k += ";res" + std::to_string(static_cast<int>(a.sharing.resource));
  k += ";shr" + std::to_string(a.sharing.units_per_row);
  k += ";shc" + std::to_string(a.sharing.units_per_col);
  k += ";st" + std::to_string(a.sharing.pipeline_stages);
  return k;
}

}  // namespace

std::string EvalCache::key(const std::string& kernel_id,
                           const std::string& program_tag,
                           const arch::Architecture& a) {
  std::string k = kernel_id;
  k += '#';
  k += program_tag;
  k += '|';
  k += arch_fingerprint(a);
  return k;
}

core::MeasuredPerf EvalCache::get_or_measure(
    const std::string& kernel_id, const std::string& program_tag,
    const sched::PlacedProgram& program,
    const arch::Architecture& architecture) {
  const EvalRecord r =
      get_or_compute(key(kernel_id, program_tag, architecture), [&] {
        const core::MeasuredPerf m = core::measure_perf(
            sched::ContextScheduler(), *program.timing_profile(),
            architecture);
        return EvalRecord{m.perf.cycles, m.perf.stalls,
                          m.perf.nostall_cycles, m.max_critical_issues};
      });
  core::MeasuredPerf m;
  m.perf = sched::PerfPoint{r.cycles, r.stalls, r.nostall_cycles};
  m.max_critical_issues = r.max_critical_issues;
  return m;
}

util::Json EvalCache::serialize() const {
  util::Json entries = util::Json::array();
  for (const auto& [key, record] : cache_.snapshot()) {
    util::Json entry = util::Json::object();
    entry.set("key", key)
        .set("cycles", record.cycles)
        .set("stalls", record.stalls)
        .set("nostall_cycles", record.nostall_cycles)
        .set("max_critical_issues", record.max_critical_issues);
    entries.push(std::move(entry));
  }
  util::Json doc = util::Json::object();
  doc.set("format", "rsp-eval-cache")
      .set("version", kSerialFormatVersion)
      .set("entries", std::move(entries));
  return doc;
}

namespace {

int record_int_field(const util::Json& entry, const char* field) {
  return entry.at(field).as_int("cache entry field '" + std::string(field) +
                                "'");
}

}  // namespace

std::size_t EvalCache::deserialize(const util::Json& doc) {
  if (!doc.is_object() || !doc.contains("format") ||
      !doc.at("format").is_string() ||
      doc.at("format").as_string() != "rsp-eval-cache")
    throw InvalidArgumentError(
        "not an rsp-eval-cache document (missing format marker)");
  const double version = doc.at("version").as_number();
  if (version != static_cast<double>(kSerialFormatVersion))
    throw InvalidArgumentError(
        "unsupported cache format version " + util::Json(version).dump() +
        " (this build reads version " +
        std::to_string(kSerialFormatVersion) + ")");
  const util::Json& entries = doc.at("entries");
  if (!entries.is_array())
    throw InvalidArgumentError("'entries' must be a JSON array");

  // Validate every entry before touching the table: a malformed document
  // is rejected whole, not half-merged.
  std::vector<std::pair<std::string, EvalRecord>> loaded;
  loaded.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const util::Json& entry = entries.at(i);
    if (!entry.is_object())
      throw InvalidArgumentError("cache entry " + std::to_string(i) +
                                 " must be a JSON object");
    EvalRecord record;
    record.cycles = record_int_field(entry, "cycles");
    record.stalls = record_int_field(entry, "stalls");
    record.nostall_cycles = record_int_field(entry, "nostall_cycles");
    record.max_critical_issues = record_int_field(entry, "max_critical_issues");
    loaded.emplace_back(entry.at("key").as_string(), record);
  }
  for (const auto& [key, record] : loaded) insert(key, record);
  return loaded.size();
}

}  // namespace rsp::runtime
