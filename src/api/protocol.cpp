#include "api/protocol.hpp"

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/report_json.hpp"
#include "util/error.hpp"

namespace rsp::api {

namespace {

// ----------------------------------------------------------- field helpers

// The "config" payload of a "dse" request.
dse::ExplorerConfig parse_dse_config(const util::Json& request) {
  dse::ExplorerConfig config;
  if (!request.contains("config")) return config;
  const util::Json& c = request.at("config");
  if (!c.is_object())
    throw InvalidArgumentError("'config' must be an object");
  // Reject misspelled keys — a typo'd "objetive" silently running the
  // default objective would look like a successful exploration.
  static const std::vector<std::string> known = {
      "max_units_per_row", "max_units_per_col", "max_stages",
      "max_area_ratio",    "max_time_ratio",    "pareto_epsilon",
      "objective"};
  for (const std::string& key : c.keys())
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw InvalidArgumentError("unknown config key '" + key + "'");
  const auto int_field = [&](const char* key, int fallback) {
    if (!c.contains(key)) return fallback;
    return c.at(key).as_int("config key '" + std::string(key) + "'");
  };
  const auto num_field = [&](const char* key, double fallback) {
    return c.contains(key) ? c.at(key).as_number() : fallback;
  };
  config.max_units_per_row =
      int_field("max_units_per_row", config.max_units_per_row);
  config.max_units_per_col =
      int_field("max_units_per_col", config.max_units_per_col);
  config.max_stages = int_field("max_stages", config.max_stages);
  config.max_area_ratio = num_field("max_area_ratio", config.max_area_ratio);
  config.max_time_ratio = num_field("max_time_ratio", config.max_time_ratio);
  config.pareto_epsilon = num_field("pareto_epsilon", config.pareto_epsilon);
  // Wire-level configs are validated strictly at decode time so the error
  // arrives in-band instead of as a silently empty or nonsensical grid.
  // Every default is positive, so a non-positive value can only come from
  // an explicit field — rejected on top of the structural checks
  // ExplorerConfig::validate() enforces for every construction (which
  // still permits zero unit bounds for programmatic use).
  const auto reject_bound = [](const char* key, const char* what) {
    throw InvalidArgumentError("config key '" + std::string(key) +
                               "' must be " + what);
  };
  if (config.max_units_per_row <= 0)
    reject_bound("max_units_per_row", "positive");
  if (config.max_units_per_col <= 0)
    reject_bound("max_units_per_col", "positive");
  if (config.max_stages <= 0) reject_bound("max_stages", "positive");
  if (!(config.max_area_ratio > 0.0))
    reject_bound("max_area_ratio", "positive");
  if (!(config.max_time_ratio > 0.0))
    reject_bound("max_time_ratio", "positive");
  if (!(config.pareto_epsilon >= 0.0))
    reject_bound("pareto_epsilon", "non-negative");
  if (c.contains("objective")) {
    const std::string& objective = c.at("objective").as_string();
    if (objective == "min_time")
      config.objective = dse::Objective::kMinTime;
    else if (objective == "min_area")
      config.objective = dse::Objective::kMinArea;
    else if (objective == "min_area_time")
      config.objective = dse::Objective::kMinAreaTimeProduct;
    else
      throw InvalidArgumentError("unknown objective '" + objective + "'");
  }
  return config;
}

DseRequest parse_dse_request(const util::Json& doc) {
  DseRequest request;
  if (doc.contains("kernels")) {
    const util::Json& list = doc.at("kernels");
    if (!list.is_array() || list.size() == 0)
      throw InvalidArgumentError("'kernels' must be a non-empty array");
    for (std::size_t i = 0; i < list.size(); ++i)
      request.kernels.push_back(list.at(i).as_string());
  }
  request.config = parse_dse_config(doc);
  return request;
}

std::string require_string(const util::Json& doc, const char* field,
                           const std::string& op) {
  if (!doc.contains(field))
    throw InvalidArgumentError("op '" + op + "' requires a '" + field +
                               "' field");
  return doc.at(field).as_string();
}

// Strict v2 field checking: everything outside the envelope must belong to
// the op's payload.
void require_known_fields(const util::Json& doc, const std::string& op,
                          std::initializer_list<const char*> allowed) {
  for (const std::string& key : doc.keys()) {
    if (key == "protocol_version" || key == "id" || key == "op") continue;
    if (std::none_of(allowed.begin(), allowed.end(),
                     [&](const char* a) { return key == a; }))
      throw InvalidArgumentError("unknown field '" + key + "' for op '" + op +
                                 "'");
  }
}

}  // namespace

Request decode_v2_request(const util::Json& doc) {
  if (!doc.is_object())
    throw InvalidArgumentError("request must be a JSON object");
  if (!doc.contains("protocol_version"))
    throw InvalidArgumentError(
        "missing 'protocol_version' (this server speaks version " +
        std::to_string(kProtocolVersion) + ")");
  const util::Json& version = doc.at("protocol_version");
  if (!version.is_number() ||
      version.as_number() != static_cast<double>(kProtocolVersion))
    throw InvalidArgumentError(
        "unsupported protocol_version " + version.dump() +
        " (this server speaks version " + std::to_string(kProtocolVersion) +
        ")");
  if (!doc.contains("id"))
    throw InvalidArgumentError("missing request 'id'");
  const util::Json& id = doc.at("id");
  if (!id.is_string() && !id.is_number())
    throw InvalidArgumentError("'id' must be a string or number");
  if (!doc.contains("op"))
    throw InvalidArgumentError("missing 'op'");
  const std::string& op = doc.at("op").as_string();

  if (op == "list") {
    require_known_fields(doc, op, {});
    return ListRequest{};
  }
  if (op == "eval") {
    require_known_fields(doc, op, {"kernel"});
    EvalRequest request;
    request.kernel = require_string(doc, "kernel", op);
    return request;
  }
  if (op == "dse") {
    require_known_fields(doc, op, {"kernels", "config"});
    return parse_dse_request(doc);
  }
  if (op == "map" || op == "bitstream") {
    require_known_fields(doc, op, {"kernel", "arch"});
    const std::string kernel = require_string(doc, "kernel", op);
    const std::string arch = require_string(doc, "arch", op);
    if (op == "map") return MapRequest{kernel, arch};
    return BitstreamRequest{kernel, arch};
  }
  if (op == "simulate" || op == "vcd") {
    require_known_fields(doc, op, {"kernel", "arch"});
    const std::string kernel = require_string(doc, "kernel", op);
    const std::string arch = require_string(doc, "arch", op);
    if (op == "simulate") return SimulateRequest{kernel, arch};
    return VcdRequest{kernel, arch};
  }
  if (op == "simulate_batch") {
    require_known_fields(doc, op, {"kernel", "archs"});
    SimulateBatchRequest request;
    request.kernel = require_string(doc, "kernel", op);
    if (doc.contains("archs")) {
      const util::Json& list = doc.at("archs");
      if (!list.is_array() || list.size() == 0)
        throw InvalidArgumentError("'archs' must be a non-empty array");
      for (std::size_t i = 0; i < list.size(); ++i)
        request.archs.push_back(list.at(i).as_string());
    }
    return request;
  }
  if (op == "lint") {
    require_known_fields(doc, op, {"kernel", "arch"});
    LintRequest request;
    if (doc.contains("kernel"))
      request.kernel = require_string(doc, "kernel", op);
    if (doc.contains("arch"))
      request.arch = require_string(doc, "arch", op);
    return request;
  }
  if (op == "rtl") {
    require_known_fields(doc, op, {"arch"});
    RtlRequest request;
    request.arch = require_string(doc, "arch", op);
    return request;
  }
  if (op == "dot") {
    require_known_fields(doc, op, {"kernel"});
    DotRequest request;
    request.kernel = require_string(doc, "kernel", op);
    return request;
  }
  if (op == "cache_stats") {
    require_known_fields(doc, op, {});
    return CacheStatsRequest{};
  }
  if (op == "cache_save" || op == "cache_load") {
    require_known_fields(doc, op, {"path"});
    const std::string path = require_string(doc, "path", op);
    if (op == "cache_save") return CacheSaveRequest{path};
    return CacheLoadRequest{path};
  }
  if (op == "ping") {
    require_known_fields(doc, op, {"delay_ms"});
    PingRequest request;
    if (doc.contains("delay_ms"))
      request.delay_ms = doc.at("delay_ms").as_int("'delay_ms'");
    return request;
  }
  throw InvalidArgumentError(
      "unknown op '" + op +
      "' (expected one of: list, eval, dse, map, simulate, simulate_batch, "
      "lint, rtl, dot, vcd, bitstream, cache_stats, cache_save, cache_load, "
      "ping)");
}

// ------------------------------------------------------------------ bodies

namespace {

util::Json ok_body(const char* op) {
  util::Json body = util::Json::object();
  body.set("op", op).set("ok", true);
  return body;
}

}  // namespace

util::Json to_body(const ListResponse& resp) {
  util::Json kernels = util::Json::array();
  for (const KernelInfo& info : resp.kernels) {
    util::Json entry = util::Json::object();
    entry.set("name", info.name)
        .set("iterations", static_cast<std::int64_t>(info.iterations))
        .set("op_set", info.op_set)
        .set("array", info.array);
    kernels.push(std::move(entry));
  }
  util::Json architectures = util::Json::array();
  for (const std::string& name : resp.architectures) architectures.push(name);
  util::Json body = ok_body("list");
  body.set("kernels", std::move(kernels));
  body.set("architectures", std::move(architectures));
  return body;
}

util::Json to_body(const EvalResponse& resp) {
  util::Json body = ok_body("eval");
  body.set("report", core::to_json(resp.kernel, resp.rows));
  return body;
}

util::Json to_body(const DseResponse& resp) {
  const dse::ExplorationResult& result = resp.result;
  util::Json kernel_names = util::Json::array();
  for (const std::string& name : resp.kernels) kernel_names.push(name);
  util::Json pareto = util::Json::array();
  for (const dse::Candidate* c : result.pareto_points())
    pareto.push(c->point.label());
  util::Json base = util::Json::object();
  base.set("area_slices", result.base_area)
      .set("cycles", static_cast<std::int64_t>(result.base_cycles))
      .set("time_ns", result.base_time_ns);

  util::Json body = ok_body("dse");
  body.set("kernels", std::move(kernel_names));
  body.set("candidates", static_cast<std::int64_t>(result.candidates.size()));
  body.set("pareto", std::move(pareto));
  body.set("base", std::move(base));
  if (result.selected >= 0) {
    const dse::Candidate& best = result.best();
    util::Json selected = util::Json::object();
    selected.set("label", best.point.label())
        .set("area_slices", best.area_synthesized)
        .set("cycles", static_cast<std::int64_t>(best.exact_cycles))
        .set("time_ns", best.exact_time_ns)
        .set("stalls", static_cast<std::int64_t>(best.total_stalls));
    body.set("selected", std::move(selected));
  } else {
    body.set("selected", util::Json());
  }
  return body;
}

util::Json to_body(const MapResponse& resp) {
  util::Json body = ok_body("map");
  body.set("kernel", resp.kernel)
      .set("arch", resp.arch)
      .set("cycles", resp.cycles)
      .set("peak_mults_per_cycle", resp.peak_critical_issues)
      .set("schedule", resp.schedule);
  return body;
}

util::Json to_body(const SimulateResponse& resp) {
  util::Json body = ok_body("simulate");
  body.set("kernel", resp.kernel)
      .set("arch", resp.arch)
      .set("cycles", resp.cycles)
      .set("pe_utilization_percent", 100.0 * resp.pe_utilization)
      .set("matches_golden", resp.matches_golden);
  return body;
}

util::Json to_body(const SimulateBatchResponse& resp) {
  util::Json rows = util::Json::array();
  for (const SimulateResponse& row : resp.rows) {
    util::Json entry = util::Json::object();
    entry.set("arch", row.arch)
        .set("cycles", row.cycles)
        .set("pe_utilization_percent", 100.0 * row.pe_utilization)
        .set("matches_golden", row.matches_golden);
    rows.push(std::move(entry));
  }
  util::Json body = ok_body("simulate_batch");
  body.set("kernel", resp.kernel).set("results", std::move(rows));
  return body;
}

util::Json to_body(const LintResponse& resp) {
  util::Json rows = util::Json::array();
  for (const LintResponse::Row& row : resp.rows) {
    util::Json entry = util::Json::object();
    entry.set("kernel", row.kernel).set("arch", row.arch);
    // {"errors", "warnings", "diagnostics"} merged flat into the row.
    entry.merge(row.report.to_json());
    rows.push(std::move(entry));
  }
  util::Json body = ok_body("lint");
  body.set("clean", resp.clean())
      .set("errors", resp.error_count())
      .set("warnings", resp.warning_count())
      .set("results", std::move(rows));
  return body;
}

util::Json to_body(const RtlResponse& resp) {
  util::Json body = ok_body("rtl");
  body.set("arch", resp.arch).set("verilog", resp.verilog);
  return body;
}

util::Json to_body(const DotResponse& resp) {
  util::Json body = ok_body("dot");
  body.set("kernel", resp.kernel).set("dot", resp.dot);
  return body;
}

util::Json to_body(const VcdResponse& resp) {
  util::Json body = ok_body("vcd");
  body.set("kernel", resp.kernel).set("arch", resp.arch).set("vcd", resp.vcd);
  return body;
}

util::Json to_body(const BitstreamResponse& resp) {
  util::Json body = ok_body("bitstream");
  body.set("kernel", resp.kernel)
      .set("arch", resp.arch)
      .set("summary", resp.summary)
      .set("bytes", static_cast<std::int64_t>(resp.bytes));
  return body;
}

namespace {

// Shared by every memo table's section of cache_stats.
util::Json& set_cache_stat_fields(util::Json& body,
                                  const runtime::CacheStats& stats) {
  return body.set("entries", static_cast<std::int64_t>(stats.entries))
      .set("hits", static_cast<std::int64_t>(stats.hits))
      .set("misses", static_cast<std::int64_t>(stats.misses))
      .set("evictions", static_cast<std::int64_t>(stats.evictions))
      .set("max_entries", static_cast<std::int64_t>(stats.max_entries))
      .set("hit_rate", stats.hit_rate());
}

}  // namespace

util::Json to_body(const CacheStatsResponse& resp) {
  util::Json body = ok_body("cache_stats");
  set_cache_stat_fields(body, resp.stats);
  util::Json mapping = util::Json::object();
  set_cache_stat_fields(mapping, resp.mapping_stats);
  body.set("mapping", std::move(mapping));
  util::Json estimates = util::Json::object();
  set_cache_stat_fields(estimates, resp.estimate_stats);
  body.set("estimates", std::move(estimates));
  util::Json schedules = util::Json::object();
  set_cache_stat_fields(schedules, resp.schedule_stats);
  body.set("schedules", std::move(schedules));
  util::Json sim = util::Json::object();
  set_cache_stat_fields(sim, resp.sim_stats);
  body.set("sim", std::move(sim));
  return body;
}

util::Json to_body(const CacheSaveResponse& resp) {
  util::Json body = ok_body("cache_save");
  body.set("path", resp.path)
      .set("entries", static_cast<std::int64_t>(resp.entries));
  return body;
}

util::Json to_body(const CacheLoadResponse& resp) {
  util::Json body = ok_body("cache_load");
  body.set("path", resp.path)
      .set("entries_loaded", static_cast<std::int64_t>(resp.entries_loaded))
      .set("entries_total", static_cast<std::int64_t>(resp.entries_total));
  return body;
}

util::Json to_body(const PingResponse& resp) {
  util::Json body = ok_body("ping");
  body.set("delay_ms", resp.delay_ms);
  return body;
}

util::Json error_body(const std::string& message) {
  util::Json body = util::Json::object();
  body.set("ok", false).set("error", message);
  return body;
}

util::Json encode_v2_response(const util::Json& id, util::Json body) {
  util::Json out = util::Json::object();
  out.set("protocol_version", kProtocolVersion);
  out.set("id", id);
  out.merge(std::move(body));
  return out;
}

}  // namespace rsp::api
