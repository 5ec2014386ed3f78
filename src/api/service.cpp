#include "api/service.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/verifier.hpp"
#include "api/protocol.hpp"
#include "arch/bitstream.hpp"
#include "arch/presets.hpp"
#include "ir/dot.hpp"
#include "kernels/registry.hpp"
#include "rtl/generate.hpp"
#include "runtime/sim_batch.hpp"
#include "sched/legality.hpp"
#include "sched/mapper.hpp"
#include "sched/pretty.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace rsp::api {

Service::Service(ServiceOptions options)
    : cache_(options.cache ? std::move(options.cache)
                           : std::make_shared<runtime::EvalCache>(
                                 16, options.cache_max_entries)),
      mapping_cache_(options.mapping_cache
                         ? std::move(options.mapping_cache)
                         : std::make_shared<runtime::MappingCache>(
                               16, options.cache_max_entries)),
      sim_runs_(16, options.cache_max_entries),
      catalogue_(kernels::full_catalogue()),
      workers_(options.threads),
      dispatch_(options.max_inflight) {}

runtime::RuntimeOptions Service::runtime_options() const {
  runtime::RuntimeOptions runtime;
  runtime.pool = &workers_;
  runtime.cache = cache_;
  runtime.mapping_cache = mapping_cache_;
  return runtime;
}

sched::ConfigurationContext Service::schedule_for(
    const kernels::Workload& w, const arch::Architecture& a) const {
  // The mapping memo-cache makes repeated map/simulate/vcd/bitstream
  // requests skip remapping; only the target-architecture schedule runs.
  const std::shared_ptr<const dse::KernelPrep> prep =
      mapping_cache_->get_or_map(w);
  const sched::ContextScheduler scheduler;
  sched::ConfigurationContext ctx = scheduler.schedule(prep->program, a);
  sched::require_legal(ctx);
  return ctx;
}

const kernels::Workload& Service::workload(const std::string& name) const {
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
  const kernels::Workload& w = workload(request.kernel);
  const runtime::ParallelExplorer evaluator(
      w.array, {}, synth::SynthesisModel(), runtime_options());
  EvalResponse resp;
  resp.kernel = w.name;
  resp.rows = evaluator.evaluate_suite(
      w.name, mapping_cache_->get_or_map(w)->program,
      arch::standard_suite(w.array.rows, w.array.cols));
  return resp;
}

DseResponse Service::dse(const DseRequest& request) const {
  std::vector<kernels::Workload> domain;
  if (request.kernels.empty()) {
    domain = kernels::paper_suite();
  } else {
    for (const std::string& name : request.kernels)
      domain.push_back(workload(name));
  }
  DseResponse resp;
  for (const kernels::Workload& w : domain) resp.kernels.push_back(w.name);
  const runtime::ParallelExplorer explorer(domain.front().array,
                                           request.config,
                                           synth::SynthesisModel(),
                                           runtime_options());
  resp.result = explorer.explore(domain);
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
        row.report =
            analysis::lint_context(schedule_for(w, a));
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
  const kernels::Workload& w = workload(request.kernel);
  const arch::Architecture a =
      architecture(request.arch, w.array.rows, w.array.cols);
  const sched::ConfigurationContext ctx = schedule_for(w, a);
  MapResponse resp;
  resp.kernel = w.name;
  resp.arch = a.name;
  resp.schedule = sched::render_schedule(ctx);
  resp.cycles = ctx.length();
  resp.peak_critical_issues = ctx.max_critical_issues_per_cycle();
  return resp;
}

std::shared_ptr<const Service::SimRun> Service::sim_run(
    const kernels::Workload& w, const arch::Architecture& a,
    sim::SimEngine engine) const {
  const std::string key =
      w.name + '\n' + a.name + '\n' + sim::engine_name(engine);
  return sim_runs_.get_or_compute(key, [&]() {
    sched::ConfigurationContext ctx = schedule_for(w, a);
    ir::Memory mem, golden;
    w.setup(mem);
    w.setup(golden);
    const sim::SimResult result =
        sim::Machine(ir::DatapathMode::kExact, engine).run(ctx, mem);
    w.golden(golden);
    return std::make_shared<const SimRun>(
        SimRun{std::move(ctx), result, mem == golden});
  });
}

SimulateResponse Service::simulate(const SimulateRequest& request) const {
  const kernels::Workload& w = workload(request.kernel);
  const arch::Architecture a =
      architecture(request.arch, w.array.rows, w.array.cols);
  const std::shared_ptr<const SimRun> run = sim_run(w, a, request.engine);
  SimulateResponse resp;
  resp.kernel = w.name;
  resp.arch = a.name;
  resp.engine = sim::engine_name(request.engine);
  resp.cycles = run->result.stats.cycles;
  resp.pe_utilization = run->result.stats.pe_utilization();
  resp.matches_golden = run->matches_golden;
  return resp;
}

SimulateBatchResponse Service::simulate_batch(
    const SimulateBatchRequest& request) const {
  const kernels::Workload& w = workload(request.kernel);
  std::vector<arch::Architecture> archs;
  if (request.archs.empty()) {
    archs = arch::standard_suite(w.array.rows, w.array.cols);
  } else {
    for (const std::string& name : request.archs)
      archs.push_back(architecture(name, w.array.rows, w.array.cols));
  }

  std::vector<sched::ConfigurationContext> contexts;
  std::vector<ir::Memory> memories;
  contexts.reserve(archs.size());
  memories.reserve(archs.size());
  for (const arch::Architecture& a : archs) {
    contexts.push_back(schedule_for(w, a));
    memories.emplace_back();
    w.setup(memories.back());
  }
  std::vector<const sched::ConfigurationContext*> pointers;
  pointers.reserve(contexts.size());
  for (const sched::ConfigurationContext& ctx : contexts)
    pointers.push_back(&ctx);

  // Fan out on the evaluation pool: a dispatch task may block on workers_
  // futures, never the reverse (see the class comment).
  runtime::SimBatchOptions options;
  options.pool = &workers_;
  options.engine = request.engine;
  const std::vector<runtime::SimBatchResult> outcomes =
      runtime::simulate_many(pointers, std::move(memories), options);

  ir::Memory golden;
  w.setup(golden);
  w.golden(golden);

  SimulateBatchResponse resp;
  resp.kernel = w.name;
  resp.engine = sim::engine_name(request.engine);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SimulateResponse row;
    row.kernel = w.name;
    row.arch = archs[i].name;
    row.engine = resp.engine;
    row.cycles = outcomes[i].result.stats.cycles;
    row.pe_utilization = outcomes[i].result.stats.pe_utilization();
    row.matches_golden = outcomes[i].memory == golden;
    resp.rows.push_back(std::move(row));
  }
  return resp;
}

RtlResponse Service::rtl(const RtlRequest& request) const {
  RtlResponse resp;
  resp.arch = request.arch;
  resp.verilog = rtl::generate_verilog(architecture(request.arch, 8, 8));
  return resp;
}

DotResponse Service::dot(const DotRequest& request) const {
  const kernels::Workload& w = workload(request.kernel);
  DotResponse resp;
  resp.kernel = w.name;
  resp.dot = ir::to_dot(w.kernel);
  return resp;
}

VcdResponse Service::vcd(const VcdRequest& request) const {
  const kernels::Workload& w = workload(request.kernel);
  const arch::Architecture a =
      architecture(request.arch, w.array.rows, w.array.cols);
  // Shares the memoized run with `simulate`: the simulate+vcd pair on the
  // same (kernel, arch, engine) costs one simulation.
  const std::shared_ptr<const SimRun> run = sim_run(w, a, request.engine);
  VcdResponse resp;
  resp.kernel = w.name;
  resp.arch = a.name;
  resp.vcd = sim::to_vcd(run->context, run->result);
  return resp;
}

BitstreamResponse Service::bitstream(const BitstreamRequest& request) const {
  const kernels::Workload& w = workload(request.kernel);
  const arch::Architecture a =
      architecture(request.arch, w.array.rows, w.array.cols);
  const sched::ConfigurationContext ctx = schedule_for(w, a);
  const arch::ConfigCache config = ctx.encode();
  BitstreamResponse resp;
  resp.kernel = w.name;
  resp.arch = a.name;
  resp.summary = config.summary();
  resp.bytes = arch::encode_bitstream(config, a.sharing).size();
  return resp;
}

CacheStatsResponse Service::cache_stats(const CacheStatsRequest&) const {
  CacheStatsResponse resp;
  resp.stats = cache_->stats();
  resp.mapping_stats = mapping_cache_->stats();
  resp.estimate_stats = mapping_cache_->estimate_stats();
  resp.sim_stats = sim_runs_.stats();
  resp.threads = workers_.thread_count();
  return resp;
}

CacheSaveResponse Service::cache_save(const CacheSaveRequest& request) const {
  const util::Json doc = cache_->serialize();
  std::ofstream file(request.path);
  if (!file)
    throw Error("cannot write cache file '" + request.path + "'");
  file << doc.dump() << "\n";
  file.flush();
  if (!file)
    throw Error("error while writing cache file '" + request.path + "'");
  CacheSaveResponse resp;
  resp.path = request.path;
  resp.entries = doc.at("entries").size();
  return resp;
}

CacheLoadResponse Service::cache_load(const CacheLoadRequest& request) const {
  std::ifstream file(request.path);
  if (!file)
    throw NotFoundError("cannot open cache file '" + request.path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  CacheLoadResponse resp;
  resp.path = request.path;
  resp.entries_loaded = cache_->deserialize(util::Json::parse(text.str()));
  resp.entries_total = cache_->stats().entries;
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
