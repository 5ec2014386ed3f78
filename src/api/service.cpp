#include "api/service.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "analysis/verifier.hpp"
#include "api/protocol.hpp"
#include "arch/bitstream.hpp"
#include "arch/presets.hpp"
#include "ir/dot.hpp"
#include "kernels/registry.hpp"
#include "rtl/generate.hpp"
#include "sched/mapper.hpp"
#include "sched/pretty.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace rsp::api {

namespace {

// Key of the schedule and simulation memos: kernel name × architecture
// name. Both names resolve through fixed tables (the catalogue and the
// standard suite), so a name pins the full configuration; the mapping and
// estimate memos key by the kernel name alone.
std::string pair_key(const kernels::Workload& w, const arch::Architecture& a) {
  return w.name + '\n' + a.name;
}

// A cache file is a regular file, or for cache_save a path that does not
// exist yet. Checked before opening: a FIFO would block the dispatch thread
// in open(), and a device such as /dev/zero would be read until allocation
// fails.
void require_no_special_file(const std::string& path) {
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (std::filesystem::exists(status) &&
      !std::filesystem::is_regular_file(status))
    throw InvalidArgumentError("cache file '" + path +
                               "' is not a regular file");
}

InvalidArgumentError oversized_cache_file(const std::string& path) {
  return InvalidArgumentError("cache file '" + path + "' exceeds " +
                              std::to_string(kMaxCacheFileBytes) + " bytes");
}

}  // namespace

Service::Service(ServiceOptions options)
    : evals_(16, options.cache_max_entries),
      mappings_(16, options.cache_max_entries),
      estimates_(16, options.cache_max_entries),
      schedules_(16, options.cache_max_entries),
      sim_runs_(16, options.cache_max_entries),
      catalogue_(kernels::full_catalogue()),
      dispatch_(options.max_inflight) {}

const analysis::LintReport& Service::ScheduledPair::lint_report() const {
  std::call_once(lint_once_,
                 [this] { lint_report_ = analysis::lint_context(context); });
  return lint_report_;
}

std::shared_ptr<const Service::KernelRecord> Service::kernel_record(
    const kernels::Workload& w) const {
  return mappings_.get_or_compute(w.name, [&w] {
    KernelRecord record{dse::prepare_kernel(w), {}};
    record.program_tag = runtime::EvalCache::program_tag(record.program);
    return std::make_shared<const KernelRecord>(std::move(record));
  });
}

std::shared_ptr<const Service::ScheduledPair> Service::schedule_for(
    const kernels::Workload& w, const arch::Architecture& a) const {
  return schedules_.get_or_compute(pair_key(w, a), [&] {
    const std::shared_ptr<const KernelRecord> record = kernel_record(w);
    auto pair = std::make_shared<const ScheduledPair>(
        sched::ContextScheduler().schedule(record->program, a));
    analysis::require_legal(pair->context);
    return pair;
  });
}

kernels::Workload Service::workload(const std::string& name) const {
  return kernels::find_in_catalogue(catalogue_, name);
}

arch::Architecture Service::architecture(const std::string& name, int rows,
                                         int cols) const {
  for (const arch::Architecture& a : arch::standard_suite(rows, cols))
    if (a.name == name) return a;
  throw NotFoundError("unknown architecture '" + name +
                      "' (Base, RS#1..RS#4, RSP#1..RSP#4)");
}

ListResponse Service::list(const ListRequest&) const {
  ListResponse resp;
  for (const kernels::Workload& w : catalogue_) {
    KernelInfo info;
    info.name = w.name;
    info.iterations = w.kernel.trip_count();
    info.op_set = w.kernel.op_set_string();
    info.array =
        std::to_string(w.array.rows) + "x" + std::to_string(w.array.cols);
    resp.kernels.push_back(std::move(info));
  }
  for (const arch::Architecture& a : arch::standard_suite())
    resp.architectures.push_back(a.name);
  return resp;
}

EvalResponse Service::eval(const EvalRequest& request) const {
  const kernels::Workload w = workload(request.kernel);
  const std::shared_ptr<const KernelRecord> record = kernel_record(w);
  EvalResponse resp;
  resp.kernel = w.name;
  resp.rows = core::RspEvaluator().evaluate_suite(
      record->program, arch::standard_suite(w.array.rows, w.array.cols),
      [&](const arch::Architecture& a) {
        return evals_.get_or_measure(w.name, record->program_tag,
                                     record->program, a);
      });
  return resp;
}

DseResponse Service::dse(const DseRequest& request) const {
  if (request.kernels.size() > kMaxDseKernels)
    throw InvalidArgumentError(
        "dse: 'kernels' lists " + std::to_string(request.kernels.size()) +
        " names; at most " + std::to_string(kMaxDseKernels) + " are allowed");
  std::vector<kernels::Workload> domain;
  if (request.kernels.empty()) {
    domain = kernels::paper_suite();
  } else {
    for (const std::string& name : request.kernels)
      domain.push_back(workload(name));
  }
  DseResponse resp;
  for (const kernels::Workload& w : domain) resp.kernels.push_back(w.name);
  const dse::Explorer explorer(domain.front().array, request.config);

  // Step 1 reads through the mapping and estimate memos; step 5 reads
  // through the evaluation cache under each record's program tag. explore
  // runs the step-1 hook for every kernel before the first measurement.
  std::vector<std::shared_ptr<const KernelRecord>> records(domain.size());
  const dse::PrepareFn prepare = [&](std::size_t k,
                                     const kernels::Workload& w) {
    records[k] = kernel_record(w);
    return dse::PreparedKernel{
        records[k], estimates_.get_or_compute(w.name, [&] {
          return std::make_shared<const core::EstimateProfile>(
              records[k]->base_context);
        })};
  };
  const dse::MeasureFn measure = [&](std::size_t k,
                                     const arch::Architecture& a) {
    return evals_
        .get_or_measure(domain[k].name, records[k]->program_tag,
                        records[k]->program, a)
        .perf;
  };
  resp.result = explorer.explore(domain, prepare, measure);
  return resp;
}

int LintResponse::error_count() const {
  int n = 0;
  for (const Row& row : rows) n += row.report.error_count();
  return n;
}

int LintResponse::warning_count() const {
  int n = 0;
  for (const Row& row : rows) n += row.report.warning_count();
  return n;
}

LintResponse Service::lint(const LintRequest& request) const {
  std::vector<kernels::Workload> domain;
  if (request.kernel.empty()) {
    domain = catalogue_;
  } else {
    domain.push_back(workload(request.kernel));
  }
  LintResponse resp;
  for (const kernels::Workload& w : domain) {
    std::vector<arch::Architecture> archs;
    if (request.arch.empty()) {
      archs = arch::standard_suite(w.array.rows, w.array.cols);
    } else {
      archs.push_back(architecture(request.arch, w.array.rows, w.array.cols));
    }
    for (const arch::Architecture& a : archs) {
      LintResponse::Row row;
      row.kernel = w.name;
      row.arch = a.name;
      try {
        row.report = schedule_for(w, a)->lint_report();
      } catch (const std::exception& e) {
        // Mapping/scheduling died before a context existed (e.g. the
        // scheduler cannot place the kernel on this architecture) — a
        // toolchain finding, reported in-band like every other rule.
        row.report.diagnostics.push_back(analysis::Diagnostic{
            "RSP-T001", analysis::Severity::kError, analysis::Locus{},
            e.what(),
            "the toolchain rejected this (kernel, architecture) pair before "
            "a schedule existed"});
      }
      resp.rows.push_back(std::move(row));
    }
  }
  return resp;
}

MapResponse Service::map(const MapRequest& request) const {
  const kernels::Workload w = workload(request.kernel);
  const arch::Architecture a =
      architecture(request.arch, w.array.rows, w.array.cols);
  const std::shared_ptr<const ScheduledPair> pair = schedule_for(w, a);
  const sched::ConfigurationContext& ctx = pair->context;
  MapResponse resp;
  resp.kernel = w.name;
  resp.arch = a.name;
  resp.schedule = sched::render_schedule(ctx);
  resp.cycles = ctx.length();
  resp.peak_critical_issues = ctx.max_critical_issues_per_cycle();
  return resp;
}

std::shared_ptr<const Service::SimRun> Service::sim_run(
    const kernels::Workload& w, const arch::Architecture& a) const {
  return sim_runs_.get_or_compute(pair_key(w, a), [&]() {
    std::shared_ptr<const ScheduledPair> pair = schedule_for(w, a);
    ir::Memory mem, golden;
    w.setup(mem);
    w.setup(golden);
    const sim::SimResult result = sim::Machine().run(pair->context, mem);
    w.golden(golden);
    return std::make_shared<const SimRun>(
        SimRun{std::move(pair), result, mem == golden});
  });
}

SimulateResponse Service::simulate_pair(const kernels::Workload& w,
                                       const arch::Architecture& a) const {
  const std::shared_ptr<const SimRun> run = sim_run(w, a);
  SimulateResponse resp;
  resp.kernel = w.name;
  resp.arch = a.name;
  resp.cycles = run->result.stats.cycles;
  resp.pe_utilization = run->result.stats.pe_utilization();
  resp.matches_golden = run->matches_golden;
  return resp;
}

SimulateResponse Service::simulate(const SimulateRequest& request) const {
  const kernels::Workload w = workload(request.kernel);
  return simulate_pair(w,
                       architecture(request.arch, w.array.rows, w.array.cols));
}

SimulateBatchResponse Service::simulate_batch(
    const SimulateBatchRequest& request) const {
  const kernels::Workload w = workload(request.kernel);
  std::vector<arch::Architecture> archs;
  if (request.archs.empty()) {
    archs = arch::standard_suite(w.array.rows, w.array.cols);
  } else {
    // Rejecting repeats bounds a request at the nine suite designs: every
    // listed name can cost a schedule and a simulation.
    for (const std::string& name : request.archs) {
      if (std::any_of(archs.begin(), archs.end(),
                      [&](const arch::Architecture& a) {
                        return a.name == name;
                      }))
        throw InvalidArgumentError("simulate_batch: architecture '" + name +
                                   "' is listed more than once");
      archs.push_back(architecture(name, w.array.rows, w.array.cols));
    }
  }

  // Rows come from the simulation memo, in request order; a pair not
  // simulated yet runs here, on this request's thread. The first failing
  // row's error answers the request.
  SimulateBatchResponse resp;
  resp.kernel = w.name;
  for (const arch::Architecture& a : archs)
    resp.rows.push_back(simulate_pair(w, a));
  return resp;
}

RtlResponse Service::rtl(const RtlRequest& request) const {
  RtlResponse resp;
  resp.arch = request.arch;
  resp.verilog = rtl::generate_verilog(architecture(request.arch, 8, 8));
  return resp;
}

DotResponse Service::dot(const DotRequest& request) const {
  const kernels::Workload w = workload(request.kernel);
  DotResponse resp;
  resp.kernel = w.name;
  resp.dot = ir::to_dot(w.kernel);
  return resp;
}

VcdResponse Service::vcd(const VcdRequest& request) const {
  const kernels::Workload w = workload(request.kernel);
  const arch::Architecture a =
      architecture(request.arch, w.array.rows, w.array.cols);
  // Shares the memoized run with `simulate`: the simulate+vcd pair on the
  // same (kernel, arch) costs one simulation.
  const std::shared_ptr<const SimRun> run = sim_run(w, a);
  VcdResponse resp;
  resp.kernel = w.name;
  resp.arch = a.name;
  resp.vcd = sim::to_vcd(run->pair->context, run->result);
  return resp;
}

BitstreamResponse Service::bitstream(const BitstreamRequest& request) const {
  const kernels::Workload w = workload(request.kernel);
  const arch::Architecture a =
      architecture(request.arch, w.array.rows, w.array.cols);
  const arch::ConfigCache config = schedule_for(w, a)->context.encode();
  BitstreamResponse resp;
  resp.kernel = w.name;
  resp.arch = a.name;
  resp.summary = config.summary();
  resp.bytes = arch::encode_bitstream(config, a.sharing).size();
  return resp;
}

CacheStatsResponse Service::cache_stats(const CacheStatsRequest&) const {
  CacheStatsResponse resp;
  resp.stats = evals_.stats();
  resp.mapping_stats = mappings_.stats();
  resp.estimate_stats = estimates_.stats();
  resp.schedule_stats = schedules_.stats();
  resp.sim_stats = sim_runs_.stats();
  return resp;
}

CacheSaveResponse Service::cache_save(const CacheSaveRequest& request) const {
  require_no_special_file(request.path);
  const util::Json doc = evals_.serialize();
  const std::string text = doc.dump() + "\n";
  if (text.size() > kMaxCacheFileBytes)
    throw oversized_cache_file(request.path);
  std::ofstream file(request.path);
  if (!file)
    throw Error("cannot write cache file '" + request.path + "'");
  file << text;
  file.flush();
  if (!file)
    throw Error("error while writing cache file '" + request.path + "'");
  CacheSaveResponse resp;
  resp.path = request.path;
  resp.entries = doc.at("entries").size();
  return resp;
}

CacheLoadResponse Service::cache_load(const CacheLoadRequest& request) const {
  require_no_special_file(request.path);
  std::ifstream file(request.path);
  if (!file)
    throw NotFoundError("cannot open cache file '" + request.path + "'");
  // One byte past the bound tells a longer file apart; its stat size is
  // not trusted.
  std::string text;
  char chunk[1 << 16];
  while (text.size() <= kMaxCacheFileBytes && file) {
    const std::size_t want =
        std::min(sizeof chunk, kMaxCacheFileBytes + 1 - text.size());
    file.read(chunk, static_cast<std::streamsize>(want));
    text.append(chunk, static_cast<std::size_t>(file.gcount()));
  }
  if (text.size() > kMaxCacheFileBytes)
    throw oversized_cache_file(request.path);
  CacheLoadResponse resp;
  resp.path = request.path;
  resp.entries_loaded = evals_.deserialize(util::Json::parse(text));
  resp.entries_total = evals_.stats().entries;
  return resp;
}

PingResponse Service::ping(const PingRequest& request) const {
  if (request.delay_ms < 0 || request.delay_ms > kMaxPingDelayMs)
    throw InvalidArgumentError("'delay_ms' must be in [0, " +
                               std::to_string(kMaxPingDelayMs) + "]");
  if (request.delay_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(request.delay_ms));
  PingResponse resp;
  resp.delay_ms = request.delay_ms;
  return resp;
}

namespace {

// One overload per operation, so the variant visitor in handle() routes by
// plain overload resolution instead of a hand-written type switch.
ListResponse dispatch_typed(const Service& s, const ListRequest& r) {
  return s.list(r);
}
EvalResponse dispatch_typed(const Service& s, const EvalRequest& r) {
  return s.eval(r);
}
DseResponse dispatch_typed(const Service& s, const DseRequest& r) {
  return s.dse(r);
}
MapResponse dispatch_typed(const Service& s, const MapRequest& r) {
  return s.map(r);
}
SimulateResponse dispatch_typed(const Service& s, const SimulateRequest& r) {
  return s.simulate(r);
}
SimulateBatchResponse dispatch_typed(const Service& s,
                                     const SimulateBatchRequest& r) {
  return s.simulate_batch(r);
}
LintResponse dispatch_typed(const Service& s, const LintRequest& r) {
  return s.lint(r);
}
RtlResponse dispatch_typed(const Service& s, const RtlRequest& r) {
  return s.rtl(r);
}
DotResponse dispatch_typed(const Service& s, const DotRequest& r) {
  return s.dot(r);
}
VcdResponse dispatch_typed(const Service& s, const VcdRequest& r) {
  return s.vcd(r);
}
BitstreamResponse dispatch_typed(const Service& s, const BitstreamRequest& r) {
  return s.bitstream(r);
}
CacheStatsResponse dispatch_typed(const Service& s,
                                  const CacheStatsRequest& r) {
  return s.cache_stats(r);
}
CacheSaveResponse dispatch_typed(const Service& s, const CacheSaveRequest& r) {
  return s.cache_save(r);
}
CacheLoadResponse dispatch_typed(const Service& s, const CacheLoadRequest& r) {
  return s.cache_load(r);
}
PingResponse dispatch_typed(const Service& s, const PingRequest& r) {
  return s.ping(r);
}

}  // namespace

util::Json Service::handle(const Request& request) const {
  try {
    util::Json body = std::visit(
        [this](const auto& typed) {
          return to_body(dispatch_typed(*this, typed));
        },
        request);
    // The transport's contribution to cache_stats (see
    // set_stats_extension): merged here so every path — typed, stdin
    // serve, socket — reports the same document.
    if (stats_extension_ && std::holds_alternative<CacheStatsRequest>(request))
      body.set("server", stats_extension_());
    return body;
  } catch (const std::exception& e) {
    // rsp::Error and anything else (bad_alloc on an oversized DSE space,
    // ...): failures travel in-band, never out of the dispatcher.
    util::Json body = util::Json::object();
    body.set("ok", false).set("error", std::string(e.what()));
    return body;
  }
}

std::future<util::Json> Service::submit(Request request) const {
  return dispatch_.submit(
      [this, request = std::move(request)] { return handle(request); });
}

std::future<void> Service::submit(
    Request request, std::function<void(util::Json body)> done) const {
  return dispatch_.submit(
      [this, request = std::move(request), done = std::move(done)] {
        done(handle(request));
      });
}

}  // namespace rsp::api
