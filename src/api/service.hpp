// rsp::api::Service — the single façade over the toolchain.
//
// Every entry point into the machinery (rsp_cli subcommands, the NDJSON
// serving mode over stdin or sockets) dispatches through one stateful
// Service instance, so capabilities are wired once and every transport
// shares the same ThreadPool and memo tables. Requests and responses are
// typed structs; the JSON wire format lives in api/protocol.hpp.
//
// Concurrency model: the Service owns one pool, `dispatch`, the
// request-level executor behind `submit()`, sized by
// ServiceOptions::max_inflight. Independent requests run concurrently
// there, sharing the memo caches; each request runs start to finish on its
// dispatch thread. eval and dse run the serial Fig. 7 loops
// (core::RspEvaluator::evaluate_suite, dse::Explorer::explore), reading
// through the kernel memos and the evaluation cache via the loops'
// measure/prepare hooks, and simulate_batch builds its rows one after
// another. Per kernel the Service maps and base-schedules once (the
// mapping memo, Fig. 7 step 1) and builds one estimate profile (the
// estimate memo, read by dse). Per (kernel, architecture) pair it
// schedules and legality-checks once (the schedule memo, read by map,
// lint, bitstream and the simulation memo), lints once (the pair's
// schedule-memo entry keeps the lint report the first `lint` of the pair
// builds; nothing else pays for it) and simulates once (the simulation
// memo, read by simulate, vcd and simulate_batch). Results are
// bit-identical to the serial paths regardless of the pool's size:
// memoized entries are the serial computations' results.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/estimate.hpp"
#include "core/evaluator.hpp"
#include "dse/explorer.hpp"
#include "kernels/workload.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/striped_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/context.hpp"
#include "sim/machine.hpp"
#include "util/json.hpp"

namespace rsp::api {

// ------------------------------------------------------------ request types

struct ListRequest {};

struct EvalRequest {
  std::string kernel;
};

struct DseRequest {
  /// Domain kernel names, at most kMaxDseKernels; empty explores the full
  /// nine-kernel paper suite.
  std::vector<std::string> kernels;
  dse::ExplorerConfig config;
};

/// The most kernel names one `dse` request may list: a request's CPU time
/// and memory grow with its domain, so Service::dse rejects a longer list
/// before it resolves any name.
inline constexpr std::size_t kMaxDseKernels = 64;

struct MapRequest {
  std::string kernel;
  std::string arch;
};

struct SimulateRequest {
  std::string kernel;
  std::string arch;
};

/// One kernel simulated across many architectures, row by row in request
/// order from the Service's simulation memo; the pairs it has not
/// simulated before run on the request's dispatch thread. Empty `archs`
/// runs the full standard suite — the paper's nine designs. A name listed
/// twice is rejected, so one request simulates at most those nine.
struct SimulateBatchRequest {
  std::string kernel;
  std::vector<std::string> archs;
};

struct RtlRequest {
  std::string arch;
};

struct DotRequest {
  std::string kernel;
};

struct VcdRequest {
  std::string kernel;
  std::string arch;
};

struct BitstreamRequest {
  std::string kernel;
  std::string arch;
};

/// Static verification (analysis::lint_context) of the scheduled context a
/// kernel compiles to. Empty `kernel` lints the full catalogue; empty
/// `arch` lints across the full standard suite — `{}` is "lint
/// everything". Each pair is linted once per Service: its report is kept
/// with the pair's schedule-memo entry, and repeats copy it.
struct LintRequest {
  std::string kernel;
  std::string arch;
};

struct CacheStatsRequest {};

struct CacheSaveRequest {
  std::string path;
};

struct CacheLoadRequest {
  std::string path;
};

/// The largest cache file cache_load reads and cache_save writes (about
/// 100,000 entries at 155 bytes each). cache_load reads at most one byte
/// more, so a longer file is refused without being read whole; cache_save
/// refuses a longer snapshot, so every saved file loads.
inline constexpr std::size_t kMaxCacheFileBytes = std::size_t{16} << 20;

/// Liveness probe. `delay_ms` (bounded, see kMaxPingDelayMs) makes
/// completion order observable: a delayed ping submitted before an
/// immediate one completes after it, which the serve tests use to pin
/// down out-of-order streaming.
struct PingRequest {
  int delay_ms = 0;
};

inline constexpr int kMaxPingDelayMs = 10000;

/// Every operation the Service dispatches; api/protocol.hpp decodes wire
/// requests into this variant.
using Request =
    std::variant<ListRequest, EvalRequest, DseRequest, MapRequest,
                 SimulateRequest, SimulateBatchRequest, LintRequest,
                 RtlRequest, DotRequest, VcdRequest, BitstreamRequest,
                 CacheStatsRequest, CacheSaveRequest, CacheLoadRequest,
                 PingRequest>;

// ----------------------------------------------------------- response types

struct KernelInfo {
  std::string name;
  long iterations = 0;
  std::string op_set;
  std::string array;  ///< "RxC"
};

struct ListResponse {
  std::vector<KernelInfo> kernels;
  std::vector<std::string> architectures;
};

struct EvalResponse {
  std::string kernel;
  std::vector<core::EvalResult> rows;  ///< suite order (Base first)
};

struct DseResponse {
  std::vector<std::string> kernels;  ///< resolved domain, in order
  dse::ExplorationResult result;
};

struct MapResponse {
  std::string kernel;
  std::string arch;
  std::string schedule;  ///< rendered context grid
  int cycles = 0;
  int peak_critical_issues = 0;
};

struct SimulateResponse {
  std::string kernel;
  std::string arch;
  int cycles = 0;
  double pe_utilization = 0.0;
  bool matches_golden = false;
};

struct SimulateBatchResponse {
  std::string kernel;
  std::vector<SimulateResponse> rows;  ///< requested order
};

struct LintResponse {
  /// One linted (kernel, architecture) pair. `report` is empty except for
  /// its findings when the toolchain itself failed — then the failure is
  /// surfaced as a single RSP-T001 error diagnostic instead of a thrown
  /// exception, so one bad pair cannot hide the rest of a catalogue lint.
  struct Row {
    std::string kernel;
    std::string arch;
    analysis::LintReport report;
  };
  std::vector<Row> rows;  ///< kernel-major, suite order within a kernel

  int error_count() const;
  int warning_count() const;
  bool clean() const { return error_count() == 0; }
};

struct RtlResponse {
  std::string arch;
  std::string verilog;
};

struct DotResponse {
  std::string kernel;
  std::string dot;
};

struct VcdResponse {
  std::string kernel;
  std::string arch;
  std::string vcd;
};

struct BitstreamResponse {
  std::string kernel;
  std::string arch;
  std::string summary;
  std::size_t bytes = 0;
};

struct CacheStatsResponse {
  runtime::CacheStats stats;           ///< evaluation memo table
  runtime::CacheStats mapping_stats;   ///< step-1 mapping memo table
  runtime::CacheStats estimate_stats;  ///< step-2/3 estimate memo table
  runtime::CacheStats schedule_stats;  ///< legal-context memo table
  runtime::CacheStats sim_stats;       ///< simulation-run memo table
};

struct CacheSaveResponse {
  std::string path;
  std::size_t entries = 0;  ///< entries written
};

struct CacheLoadResponse {
  std::string path;
  std::size_t entries_loaded = 0;
  std::size_t entries_total = 0;  ///< table size after the merge
};

struct PingResponse {
  int delay_ms = 0;
};

// ----------------------------------------------------------------- service

struct ServiceOptions {
  /// Accepted and ignored: the Service has one pool, sized by
  /// `max_inflight`. Kept only because the frozen perfbench sources set
  /// it; nothing else may.
  int threads = 0;
  /// Request-level concurrency (dispatch-pool threads); 0 = hardware count.
  int max_inflight = 0;
  /// Capacity bound applied to each memo table: 16 stripes of at most
  /// ceil(cache_max_entries / 16) entries, each evicting its least recently
  /// used entry; 0 = unbounded.
  std::size_t cache_max_entries = 0;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Typed entry points. All are thread-safe, run on the calling thread and
  // read through the memo caches.
  ListResponse list(const ListRequest&) const;
  EvalResponse eval(const EvalRequest&) const;
  DseResponse dse(const DseRequest&) const;
  MapResponse map(const MapRequest&) const;
  SimulateResponse simulate(const SimulateRequest&) const;
  SimulateBatchResponse simulate_batch(const SimulateBatchRequest&) const;
  LintResponse lint(const LintRequest&) const;
  RtlResponse rtl(const RtlRequest&) const;
  DotResponse dot(const DotRequest&) const;
  VcdResponse vcd(const VcdRequest&) const;
  BitstreamResponse bitstream(const BitstreamRequest&) const;
  CacheStatsResponse cache_stats(const CacheStatsRequest&) const;
  CacheSaveResponse cache_save(const CacheSaveRequest&) const;
  CacheLoadResponse cache_load(const CacheLoadRequest&) const;
  PingResponse ping(const PingRequest&) const;

  /// JSON-level dispatch: runs the request and renders the response *body*
  /// ({"op": ..., "ok": true, ...}). Failures are reported in-band as
  /// {"ok": false, "error": ...} — this never throws, so one bad request
  /// cannot take down a serve loop.
  util::Json handle(const Request& request) const;

  /// Asynchronous `handle` on the dispatch pool: independent requests run
  /// concurrently while sharing the memo caches.
  std::future<util::Json> submit(Request request) const;

  /// As above, but delivers the response body to `done` on the dispatch
  /// thread the moment the request completes — the serve loop streams
  /// out-of-order responses this way. The future signals that `done`
  /// returned.
  std::future<void> submit(Request request,
                           std::function<void(util::Json body)> done) const;

  /// Transport hook: when set, successful `cache_stats` bodies gain a
  /// "server" field holding `extension()`'s document — how the socket
  /// front-end folds its per-connection counters into the one stats op
  /// every client already speaks. Must be installed before requests are
  /// dispatched (the function is read concurrently, without locking, from
  /// dispatch threads); an extension that throws turns the response into
  /// the usual in-band error.
  void set_stats_extension(std::function<util::Json()> extension) {
    stats_extension_ = std::move(extension);
  }

 private:
  /// The workload `name` denotes: a copy of its catalogue entry, or a
  /// `gen:<seed>` kernel built for this request. Each request holds its
  /// own; only the memo tables outlive it.
  kernels::Workload workload(const std::string& name) const;
  arch::Architecture architecture(const std::string& name, int rows,
                                  int cols) const;

  /// One mapping-memo entry, Fig. 7 step 1 for one kernel: the KernelPrep
  /// (placed program with its timing profile, base context) and the
  /// EvalCache::program_tag of its program, hashed once when the record is
  /// built. Immutable but for the timing profile's atomic stall-free memo,
  /// so every request measuring the kernel shares one record.
  struct KernelRecord : dse::KernelPrep {
    std::string program_tag;
  };

  /// The step-1 record of `w`, from the mapping memo or built through
  /// dse::prepare_kernel.
  std::shared_ptr<const KernelRecord> kernel_record(
      const kernels::Workload& w) const;

  /// One schedule-memo entry: the legal context of a (kernel,
  /// architecture) pair and its lint report, which the first `lint` of the
  /// pair builds. Filling the entry never lints, so map, bitstream and the
  /// simulations pay nothing for the report.
  class ScheduledPair {
   public:
    explicit ScheduledPair(sched::ConfigurationContext context)
        : context(std::move(context)) {}

    const sched::ConfigurationContext context;

    /// analysis::lint_context(context), built on the first call; callers
    /// racing that call wait for it. A throwing lint stores nothing.
    const analysis::LintReport& lint_report() const;

   private:
    mutable std::once_flag lint_once_;
    mutable analysis::LintReport lint_report_;
  };

  /// The pair of `w` on `a`, from the schedule memo or computed: mapped
  /// through the mapping memo, scheduled on the timing profile of the
  /// record's program, and checked with
  /// analysis::require_legal. A failure throws and is never memoized, so
  /// every repeat fails the same way.
  std::shared_ptr<const ScheduledPair> schedule_for(
      const kernels::Workload& w, const arch::Architecture& a) const;

  /// One memoized simulation: everything `simulate`, `vcd` and
  /// `simulate_batch` need, so they share a single run per pair.
  struct SimRun {
    std::shared_ptr<const ScheduledPair> pair;
    sim::SimResult result;
    bool matches_golden = false;
  };

  /// Runs (or recalls) the simulation of `w` on `a`'s legal context.
  std::shared_ptr<const SimRun> sim_run(const kernels::Workload& w,
                                        const arch::Architecture& a) const;
  /// The `simulate` response of one pair, from sim_run.
  SimulateResponse simulate_pair(const kernels::Workload& w,
                                 const arch::Architecture& a) const;

  // Declaration order is destruction-order-critical: the pool must be
  // destroyed (draining its queued tasks) *before* the caches and
  // catalogue those tasks read, so it is declared after them.
  //
  // The kernel and pair memos key by catalogue name, which is sound only
  // because one name pins one workload (kernels::find_in_catalogue builds a
  // `gen:` name afresh per request, always with the default generator
  // config). Besides the fixed catalogue, these tables are all the Service
  // keeps between requests, so their bounds bound its memory.
  /// Measurements per (program, architecture); `cache_save` and
  /// `cache_load` persist this table.
  mutable runtime::EvalCache evals_;
  /// Step-1 records per kernel.
  mutable runtime::StripedMemoCache<std::shared_ptr<const KernelRecord>>
      mappings_;
  /// Estimate profiles of each kernel's base context, read by dse.
  mutable runtime::StripedMemoCache<
      std::shared_ptr<const core::EstimateProfile>>
      estimates_;
  /// Memoized legal contexts and their lint reports. Kept apart from
  /// `sim_runs_` so map, lint and bitstream never depend on a simulation
  /// succeeding: a legal context can still fail its memory bounds at run
  /// time.
  mutable runtime::StripedMemoCache<std::shared_ptr<const ScheduledPair>>
      schedules_;
  /// Memoized simulation runs.
  mutable runtime::StripedMemoCache<std::shared_ptr<const SimRun>> sim_runs_;
  /// Built once; read-only after construction (lookups are concurrent).
  std::vector<kernels::Workload> catalogue_;
  /// Set once before serving starts, read concurrently afterwards.
  std::function<util::Json()> stats_extension_;
  mutable runtime::ThreadPool dispatch_;
};

}  // namespace rsp::api
