// The rsp::api façade: Service typed dispatch (bit-identical to the serial
// paths), the v2 protocol codec, cache persistence, and the NDJSON serve
// loop (out-of-order streaming, in-band protocol errors, bounded request
// lines and unanswered requests). The Service/Protocol/Serve suites also
// run under the tsan preset — the serial-vs-service agreement checks are
// exercised with ThreadSanitizer watching the pools.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <variant>
#include <vector>

#include <sys/socket.h>

#include <algorithm>
#include <thread>

#include "api/protocol.hpp"
#include "api/serve.hpp"
#include "api/service.hpp"
#include "api/socket_server.hpp"
#include "arch/presets.hpp"
#include "core/evaluator.hpp"
#include "core/report_json.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "runtime/eval_cache.hpp"
#include "sched/mapper.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"

namespace rsp::api {
namespace {

// Unique scratch path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "rsp_api_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The snapshot `service.cache_save` writes, parsed back.
util::Json saved_snapshot(const Service& service, const TempFile& file) {
  service.cache_save({file.path()});
  std::ifstream in(file.path());
  std::ostringstream text;
  text << in.rdbuf();
  return util::Json::parse(text.str());
}

ServiceOptions small_options(int max_inflight = 2) {
  ServiceOptions options;
  options.max_inflight = max_inflight;
  return options;
}

dse::ExplorerConfig small_dse_config() {
  dse::ExplorerConfig config;
  config.max_units_per_row = 2;
  config.max_units_per_col = 1;
  config.max_stages = 2;
  return config;
}

// ----------------------------------------------------------------- service

TEST(Service, EvalBitIdenticalToSerialEvaluator) {
  // The acceptance gate: the Service path (through the memo caches) must
  // agree with core::RspEvaluator on every field of every row.
  const kernels::Workload w = kernels::find_workload("SAD");
  const sched::LoopPipeliner mapper(w.array);
  const std::vector<core::EvalResult> expected =
      core::RspEvaluator().evaluate_suite(
          mapper.map(w.kernel, w.hints, w.reduction),
          arch::standard_suite(w.array.rows, w.array.cols));

  const Service service(small_options());
  // Twice: the second pass is served from the warm cache and must not
  // drift from the serial rows either.
  for (int round = 0; round < 2; ++round) {
    const EvalResponse resp = service.eval({"SAD"});
    EXPECT_EQ(resp.kernel, "SAD");
    ASSERT_EQ(resp.rows.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(resp.rows[i].arch_name, expected[i].arch_name);
      EXPECT_EQ(resp.rows[i].cycles, expected[i].cycles);
      EXPECT_EQ(resp.rows[i].stalls, expected[i].stalls);
      // Bitwise double equality is intended: a cached measurement must
      // yield exactly the row a fresh one does.
      EXPECT_EQ(resp.rows[i].clock_ns, expected[i].clock_ns);
      EXPECT_EQ(resp.rows[i].execution_time_ns,
                expected[i].execution_time_ns);
      EXPECT_EQ(resp.rows[i].delay_reduction_percent,
                expected[i].delay_reduction_percent);
      EXPECT_EQ(resp.rows[i].max_mults_per_cycle,
                expected[i].max_mults_per_cycle);
    }
  }
  // The warm pass measured nothing: every architecture was a cache hit.
  const runtime::CacheStats stats = service.cache_stats({}).stats;
  EXPECT_EQ(stats.entries, expected.size());
  EXPECT_EQ(stats.hits, expected.size());
}

TEST(Service, DseBitIdenticalToSerialExplorer) {
  const std::vector<kernels::Workload> domain = {
      kernels::find_workload("SAD"), kernels::find_workload("MVM")};
  const dse::Explorer serial(domain.front().array, small_dse_config());

  const Service service(small_options());
  DseRequest request;
  request.kernels = {"SAD", "MVM"};
  request.config = small_dse_config();
  const DseResponse resp = service.dse(request);

  // Rendering both results through the one body renderer compares every
  // reported field (candidates, pareto set, base, selected optimum).
  DseResponse serial_resp;
  serial_resp.kernels = resp.kernels;
  serial_resp.result = serial.explore(domain);
  EXPECT_EQ(to_body(resp).dump(), to_body(serial_resp).dump());
}

TEST(Service, DseRepeatedDomainServedFromCache) {
  const Service service(small_options());
  DseRequest request;
  request.kernels = {"SAD", "MVM", "FFT"};
  request.config = small_dse_config();

  const std::string first = to_body(service.dse(request)).dump();
  const CacheStatsResponse cold = service.cache_stats({});
  EXPECT_EQ(cold.stats.hits, 0u);
  EXPECT_GT(cold.stats.entries, 0u);

  // The repeat reruns nothing: every measurement the first request wrote
  // is hit, and each kernel's mapping and estimate profile are fetched
  // once from their tables.
  const std::string second = to_body(service.dse(request)).dump();
  const CacheStatsResponse warm = service.cache_stats({});
  EXPECT_EQ(warm.stats.hits, cold.stats.entries);
  EXPECT_EQ(warm.stats.entries, cold.stats.entries);
  EXPECT_EQ(warm.mapping_stats.hits - cold.mapping_stats.hits,
            request.kernels.size());
  EXPECT_EQ(warm.estimate_stats.hits - cold.estimate_stats.hits,
            request.kernels.size());
  EXPECT_EQ(second, first);
}

TEST(Service, ConcurrentDseRequestsMatchSerialExplorer) {
  // Two requests on one domain in flight at once share the memo caches
  // (one may read entries the other is still writing); both must equal
  // the serial Explorer's result on the paper domain's full default grid.
  DseResponse serial;
  for (const kernels::Workload& w : kernels::paper_suite())
    serial.kernels.push_back(w.name);
  serial.result =
      dse::Explorer(arch::ArraySpec{}).explore(kernels::paper_suite());
  const std::string expected = to_body(serial).dump();

  const Service service(small_options(2));
  std::future<util::Json> a = service.submit(DseRequest{});
  std::future<util::Json> b = service.submit(DseRequest{});
  EXPECT_EQ(a.get().dump(), expected);
  EXPECT_EQ(b.get().dump(), expected);
}

TEST(Service, ConcurrentColdDseRequestsCountLikeSerialOnes) {
  // Each memo key is computed once: of two requests missing it at once,
  // one computes and the other waits and counts a hit, as if the two had
  // run one after the other.
  DseRequest narrow;
  narrow.kernels = {"SAD", "MVM", "gen:7"};
  narrow.config = small_dse_config();
  DseRequest wide = narrow;
  wide.config.max_units_per_col = 2;

  const Service serial(small_options(1));
  serial.dse(narrow);
  serial.dse(wide);
  const std::string expected = to_body(serial.cache_stats({})).dump();

  const Service service(small_options(2));
  std::future<util::Json> a = service.submit(narrow);
  std::future<util::Json> b = service.submit(wide);
  EXPECT_TRUE(a.get().at("ok").as_bool());
  EXPECT_TRUE(b.get().at("ok").as_bool());
  EXPECT_EQ(to_body(service.cache_stats({})).dump(), expected);
}

TEST(Service, DseRejectsAMixedGeometryDomain) {
  const Service service(small_options(1));
  DseRequest request;
  request.kernels = {"SAD", "MatMul4"};  // 8x8 and 4x4 arrays
  EXPECT_THROW(service.dse(request), InvalidArgumentError);
  const util::Json body = service.handle(request);
  EXPECT_FALSE(body.at("ok").as_bool());
  EXPECT_NE(body.at("error").as_string().find("different array geometry"),
            std::string::npos);
}

TEST(Service, DseWithoutKernelsExploresPaperSuite) {
  const Service service(small_options());
  DseRequest request;
  request.config = small_dse_config();
  const DseResponse resp = service.dse(request);
  const std::vector<kernels::Workload> suite = kernels::paper_suite();
  ASSERT_EQ(resp.kernels.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i)
    EXPECT_EQ(resp.kernels[i], suite[i].name);
}

TEST(Service, DseBoundsTheKernelsOneRequestNames) {
  const Service service(small_options(1));
  DseRequest request;
  request.config = small_dse_config();
  request.kernels.assign(kMaxDseKernels, "SAD");
  const util::Json accepted = service.handle(request);
  EXPECT_TRUE(accepted.at("ok").as_bool());
  EXPECT_EQ(accepted.at("kernels").size(), kMaxDseKernels);

  // One name more is refused before any name resolves, so unknown names
  // get the bound's answer rather than a lookup error.
  request.kernels.assign(kMaxDseKernels + 1, "no-such-kernel");
  EXPECT_THROW(service.dse(request), InvalidArgumentError);
  const util::Json rejected = service.handle(request);
  EXPECT_FALSE(rejected.at("ok").as_bool());
  EXPECT_EQ(rejected.at("error").as_string(),
            "dse: 'kernels' lists 65 names; at most 64 are allowed");
}

TEST(Service, ListReportsCatalogueAndStandardSuite) {
  const Service service(small_options(1));
  const ListResponse resp = service.list({});
  EXPECT_EQ(resp.kernels.size(), kernels::full_catalogue().size());
  ASSERT_EQ(resp.architectures.size(), 9u);  // Base, RS#1..4, RSP#1..4
  EXPECT_EQ(resp.architectures.front(), "Base");
  bool has_sad = false;
  for (const KernelInfo& info : resp.kernels)
    if (info.name == "SAD") {
      has_sad = true;
      EXPECT_GT(info.iterations, 0);
      EXPECT_FALSE(info.array.empty());
    }
  EXPECT_TRUE(has_sad);
}

TEST(Service, MapSimulateBitstreamRoundTrip) {
  const Service service(small_options(1));
  const MapResponse map = service.map({"SAD", "RSP#4"});
  EXPECT_EQ(map.kernel, "SAD");
  EXPECT_EQ(map.arch, "RSP#4");
  EXPECT_GT(map.cycles, 0);
  EXPECT_FALSE(map.schedule.empty());

  const SimulateResponse sim = service.simulate({"SAD", "RSP#4"});
  EXPECT_TRUE(sim.matches_golden);
  EXPECT_GT(sim.cycles, 0);
  EXPECT_GT(sim.pe_utilization, 0.0);

  const BitstreamResponse bits = service.bitstream({"SAD", "RSP#4"});
  EXPECT_GT(bits.bytes, 0u);
  EXPECT_FALSE(bits.summary.empty());
}

TEST(Service, RtlDotVcdEmitText) {
  const Service service(small_options(1));
  EXPECT_NE(service.rtl({"RSP#2"}).verilog.find("module"),
            std::string::npos);
  EXPECT_NE(service.dot({"SAD"}).dot.find("digraph"), std::string::npos);
  EXPECT_FALSE(service.vcd({"SAD", "Base"}).vcd.empty());
}

TEST(Service, UnknownNamesThrowNotFound) {
  const Service service(small_options(1));
  EXPECT_THROW(service.eval({"no-such-kernel"}), NotFoundError);
  EXPECT_THROW(service.map({"SAD", "no-such-arch"}), NotFoundError);
}

TEST(Service, SimulateAndVcdShareOneSimulationRun) {
  // PR-6 satellite: vcd used to rerun the simulation simulate had already
  // produced. Both must now resolve through the sim-run memo table.
  const Service service(small_options(1));
  const SimulateResponse sim = service.simulate({"SAD", "RSP#4"});
  EXPECT_TRUE(sim.matches_golden);
  const CacheStatsResponse after_sim = service.cache_stats({});
  EXPECT_EQ(after_sim.sim_stats.entries, 1u);
  EXPECT_EQ(after_sim.sim_stats.misses, 1u);

  EXPECT_FALSE(service.vcd({"SAD", "RSP#4"}).vcd.empty());
  const CacheStatsResponse after_vcd = service.cache_stats({});
  EXPECT_EQ(after_vcd.sim_stats.entries, 1u)
      << "vcd must not create a second simulation run";
  EXPECT_EQ(after_vcd.sim_stats.misses, 1u);
  EXPECT_GT(after_vcd.sim_stats.hits, after_sim.sim_stats.hits);

  // Repeating simulate is also served from the memo.
  service.simulate({"SAD", "RSP#4"});
  EXPECT_EQ(service.cache_stats({}).sim_stats.misses, 1u);
}

TEST(Service, SimulateBatchCoversSuiteAndMatchesSingleRuns) {
  const Service service(small_options());
  SimulateBatchRequest whole_suite;
  whole_suite.kernel = "SAD";
  const SimulateBatchResponse suite = service.simulate_batch(whole_suite);
  EXPECT_EQ(suite.kernel, "SAD");
  ASSERT_EQ(suite.rows.size(), 9u);  // Base, RS#1..4, RSP#1..4
  EXPECT_EQ(suite.rows.front().arch, "Base");
  EXPECT_EQ(suite.rows.back().arch, "RSP#4");
  for (const SimulateResponse& row : suite.rows) {
    EXPECT_TRUE(row.matches_golden) << row.arch;
    EXPECT_GT(row.cycles, 0) << row.arch;
  }

  // An explicit arch list is honoured positionally, and every row agrees
  // with the equivalent single-simulation request.
  const SimulateBatchResponse pair =
      service.simulate_batch({"SAD", {"RSP#4", "Base"}});
  ASSERT_EQ(pair.rows.size(), 2u);
  EXPECT_EQ(pair.rows[0].arch, "RSP#4");
  EXPECT_EQ(pair.rows[1].arch, "Base");
  for (const SimulateResponse& row : pair.rows) {
    const SimulateResponse single = service.simulate({"SAD", row.arch});
    EXPECT_EQ(row.cycles, single.cycles) << row.arch;
    EXPECT_EQ(row.pe_utilization, single.pe_utilization) << row.arch;
    EXPECT_EQ(row.matches_golden, single.matches_golden) << row.arch;
  }
}

TEST(Service, SimulateBatchRejectsRepeatedArchitecture) {
  // Every listed name can cost a schedule and a simulation, so a repeat
  // is refused up front: a request holds at most the nine suite designs.
  const Service service(small_options(1));
  try {
    service.simulate_batch({"SAD", {"Base", "RSP#4", "Base"}});
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "architecture 'Base' is listed more than once"),
              std::string::npos)
        << e.what();
  }
  // Nothing was simulated or memoized on the way to the refusal.
  EXPECT_EQ(service.cache_stats({}).mapping_stats.misses, 0u);
}

// eval and a one-kernel dse of SAD, then map, lint, bitstream, simulate,
// vcd and simulate_batch of SAD across the standard suite: every op that
// reads the mapping, schedule or simulation memo.
std::vector<Request> sad_suite_requests() {
  const std::vector<arch::Architecture> suite = arch::standard_suite();
  std::vector<Request> requests;
  requests.push_back(EvalRequest{"SAD"});
  requests.push_back(DseRequest{{"SAD"}, small_dse_config()});
  for (const arch::Architecture& a : suite)
    requests.push_back(MapRequest{"SAD", a.name});
  requests.push_back(LintRequest{"SAD", ""});
  for (const arch::Architecture& a : suite)
    requests.push_back(BitstreamRequest{"SAD", a.name});
  for (const arch::Architecture& a : suite)
    requests.push_back(SimulateRequest{"SAD", a.name});
  for (const arch::Architecture& a : suite)
    requests.push_back(VcdRequest{"SAD", a.name});
  requests.push_back(SimulateBatchRequest{"SAD", {}});
  return requests;
}

std::vector<std::string> bodies(const Service& service,
                                const std::vector<Request>& requests) {
  std::vector<std::string> out;
  for (const Request& request : requests)
    out.push_back(service.handle(request).dump());
  return out;
}

TEST(Service, RepeatedPairsScheduleAndSimulateOnce) {
  const std::vector<Request> requests = sad_suite_requests();
  const Service service(small_options());
  const std::vector<std::string> first = bodies(service, requests);
  const std::vector<std::string> second = bodies(service, requests);

  // One mapping and one estimate profile for the kernel, and one schedule
  // and one simulation per (kernel, architecture) pair, over both rounds
  // of all eight ops.
  const CacheStatsResponse stats = service.cache_stats({});
  EXPECT_EQ(stats.mapping_stats.misses, 1u);
  EXPECT_EQ(stats.mapping_stats.entries, 1u);
  EXPECT_EQ(stats.estimate_stats.misses, 1u);
  EXPECT_EQ(stats.schedule_stats.misses, 9u);
  EXPECT_EQ(stats.schedule_stats.entries, 9u);
  EXPECT_EQ(stats.sim_stats.misses, 9u);
  EXPECT_EQ(stats.sim_stats.entries, 9u);

  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_NE(first[i].find("\"ok\":true"), std::string::npos) << first[i];
    EXPECT_EQ(second[i], first[i]) << "request " << i;
    const Service fresh(small_options());
    EXPECT_EQ(fresh.handle(requests[i]).dump(), first[i]) << "request " << i;
  }

  // A cold simulate_batch simulates each pair once, on its own thread.
  const Service cold(small_options());
  cold.simulate_batch({"SAD", {}});
  EXPECT_EQ(cold.cache_stats({}).schedule_stats.misses, 9u);
  EXPECT_EQ(cold.cache_stats({}).sim_stats.misses, 9u);
}

TEST(Service, ConcurrentRepeatsMatchSerialBodies) {
  const std::vector<Request> requests = sad_suite_requests();
  const std::vector<std::string> serial =
      bodies(Service(small_options(1)), requests);

  // Four threads race the same ops on one cold Service, two front to back
  // and two back to front, so both the same pair and different ops on one
  // pair are computed concurrently.
  const Service service(small_options(4));
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> raced(
      kThreads, std::vector<std::string>(requests.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t n = 0; n < requests.size(); ++n) {
        const std::size_t i = t % 2 == 0 ? n : requests.size() - 1 - n;
        raced[t][i] = service.handle(requests[i]).dump();
      }
    });
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < requests.size(); ++i)
      EXPECT_EQ(raced[t][i], serial[i]) << "thread " << t << ", request " << i;
  EXPECT_EQ(service.cache_stats({}).mapping_stats.entries, 1u);
  EXPECT_EQ(service.cache_stats({}).schedule_stats.entries, 9u);
  EXPECT_EQ(service.cache_stats({}).sim_stats.entries, 9u);
}

TEST(Service, ConcurrentFirstLintsMatchSerialBody) {
  // Each pair's first lint builds the report its schedule-memo entry keeps.
  // Four threads released together lint the whole catalogue (126 pairs) on
  // one cold Service, so they race both the schedules and those first
  // builds.
  const Request request = LintRequest{};
  const std::string serial = Service(small_options(1)).handle(request).dump();

  const Service service(small_options(4));
  constexpr int kThreads = 4;
  std::vector<std::string> raced(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      raced[t] = service.handle(request).dump();
    });
  for (std::thread& thread : threads) thread.join();

  EXPECT_NE(serial.find("\"ok\":true"), std::string::npos) << serial;
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(raced[t], serial) << "thread " << t;
  EXPECT_EQ(service.cache_stats({}).schedule_stats.entries, 126u);
}

TEST(Service, BoundedMemosAnswerIdenticallyUnderEviction) {
  const std::vector<Request> requests = {LintRequest{"SAD", ""},
                                         SimulateBatchRequest{"SAD", {}}};
  const std::vector<std::string> expected =
      bodies(Service(small_options()), requests);

  ServiceOptions options = small_options();
  options.cache_max_entries = 2;
  const Service bounded(options);
  for (int round = 0; round < 2; ++round)
    EXPECT_EQ(bodies(bounded, requests), expected) << "round " << round;

  // The pairs did not all fit, so some were evicted and computed again.
  const CacheStatsResponse stats = bounded.cache_stats({});
  EXPECT_GT(stats.schedule_stats.evictions, 0u);
  EXPECT_GT(stats.schedule_stats.misses, 9u);
  EXPECT_GT(stats.sim_stats.evictions, 0u);
  EXPECT_GT(stats.sim_stats.misses, 9u);
}

TEST(Service, HandleReportsFailuresInBand) {
  const Service service(small_options(1));
  const util::Json body = service.handle(EvalRequest{"no-such-kernel"});
  EXPECT_FALSE(body.at("ok").as_bool());
  EXPECT_NE(body.at("error").as_string().find("no-such-kernel"),
            std::string::npos);
}

TEST(Service, PingRejectsOutOfRangeDelay) {
  const Service service(small_options(1));
  EXPECT_THROW(service.ping({-1}), InvalidArgumentError);
  EXPECT_THROW(service.ping({kMaxPingDelayMs + 1}), InvalidArgumentError);
  EXPECT_EQ(service.ping({0}).delay_ms, 0);
}

TEST(Service, SubmitRunsRequestsConcurrently) {
  // A delayed ping submitted first must still be in flight when an
  // immediate ping submitted second completes: two requests were in the
  // air at once on the dispatch pool. The delay is generous because this
  // suite also runs under ThreadSanitizer (5-15x slowdown) on loaded CI
  // runners — the immediate ping's full round trip must finish inside it.
  const Service service(small_options(2));
  std::future<util::Json> slow = service.submit(PingRequest{1000});
  std::future<util::Json> fast = service.submit(PingRequest{0});
  const util::Json fast_body = fast.get();
  EXPECT_TRUE(fast_body.at("ok").as_bool());
  EXPECT_EQ(slow.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the delayed request should still be in flight";
  EXPECT_TRUE(slow.get().at("ok").as_bool());
}

TEST(Service, CacheStatsTracksSharedCacheActivity) {
  const Service service(small_options());
  EXPECT_EQ(service.cache_stats({}).stats.entries, 0u);
  service.eval({"MVM"});
  const CacheStatsResponse stats = service.cache_stats({});
  EXPECT_GT(stats.stats.entries, 0u);
  // The body has one counter set per table and no pool size.
  const util::Json body = to_body(stats);
  EXPECT_FALSE(body.contains("threads")) << body.dump();
  EXPECT_FALSE(body.contains("invalidations")) << body.dump();
  EXPECT_FALSE(body.at("sim").contains("invalidations")) << body.dump();
}

TEST(Service, RepeatedGenEvalAnswersFromOneMapping) {
  // Each request builds its own gen:9 workload; the second eval still finds
  // the first one's step-1 record under the kernel name.
  const Service service(small_options(1));
  const std::string first = service.handle(EvalRequest{"gen:9"}).dump();
  const std::string second = service.handle(EvalRequest{"gen:9"}).dump();
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_EQ(second, first);
  const CacheStatsResponse stats = service.cache_stats({});
  EXPECT_EQ(stats.mapping_stats.misses, 1u);
  EXPECT_EQ(stats.mapping_stats.hits, 1u);
  EXPECT_EQ(stats.mapping_stats.entries, 1u);
}

// ------------------------------------------------------- cache persistence

TEST(Service, CacheSaveLoadRoundTripServesWarm) {
  TempFile file("cache_roundtrip.json");
  const Service warm(small_options());
  const EvalResponse first = warm.eval({"SAD"});
  const CacheSaveResponse saved = warm.cache_save({file.path()});
  EXPECT_EQ(saved.entries, warm.cache_stats({}).stats.entries);
  EXPECT_GT(saved.entries, 0u);

  // A fresh service (fresh cache) restores the table and serves the same
  // evaluation without a single recompute.
  const Service restored(small_options());
  const CacheLoadResponse loaded = restored.cache_load({file.path()});
  EXPECT_EQ(loaded.entries_loaded, saved.entries);
  EXPECT_EQ(loaded.entries_total, saved.entries);

  const runtime::CacheStats before = restored.cache_stats({}).stats;
  const EvalResponse second = restored.eval({"SAD"});
  const runtime::CacheStats after = restored.cache_stats({}).stats;
  EXPECT_EQ(after.misses, before.misses);  // every lookup hit
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(core::to_json(first.kernel, first.rows).dump(),
            core::to_json(second.kernel, second.rows).dump());
}

TEST(Service, CacheLoadRejectsVersionMismatch) {
  TempFile file("cache_badversion.json");
  const Service service(small_options());
  service.eval({"SAD"});
  util::Json doc = saved_snapshot(service, file);
  doc.set("version", 99);
  {
    std::ofstream out(file.path());
    out << doc.dump() << "\n";
  }
  const Service fresh(small_options());
  const util::Json body = fresh.handle(CacheLoadRequest{file.path()});
  EXPECT_FALSE(body.at("ok").as_bool());
  EXPECT_NE(body.at("error").as_string().find("version"), std::string::npos);
  EXPECT_EQ(fresh.cache_stats({}).stats.entries, 0u);  // nothing half-loaded
}

TEST(Service, CacheLoadRejectsMissingOrForeignFiles) {
  const Service service(small_options(1));
  EXPECT_THROW(service.cache_load({"/nonexistent/cache.json"}),
               NotFoundError);
  TempFile file("cache_foreign.json");
  {
    std::ofstream out(file.path());
    out << "{\"hello\": 1}\n";
  }
  EXPECT_THROW(service.cache_load({file.path()}), InvalidArgumentError);

  // Paths that are not regular files are refused before they are opened,
  // so /dev/zero is not read at all.
  EXPECT_THROW(service.cache_load({"/dev/zero"}), InvalidArgumentError);
  EXPECT_THROW(service.cache_load({::testing::TempDir()}),
               InvalidArgumentError);
  const util::Json body = service.handle(CacheLoadRequest{"/dev/zero"});
  EXPECT_FALSE(body.at("ok").as_bool());
  EXPECT_EQ(body.at("error").as_string(),
            "cache file '/dev/zero' is not a regular file");

  // A file one byte over the bound is refused in-band before it is parsed
  // (a sparse file, so the test writes no data).
  TempFile huge("cache_huge.json");
  { std::ofstream create(huge.path()); }
  std::filesystem::resize_file(huge.path(), kMaxCacheFileBytes + 1);
  const util::Json oversized = service.handle(CacheLoadRequest{huge.path()});
  EXPECT_FALSE(oversized.at("ok").as_bool());
  EXPECT_EQ(oversized.at("error").as_string(),
            "cache file '" + huge.path() + "' exceeds 16777216 bytes");
  EXPECT_EQ(service.cache_stats({}).stats.entries, 0u);
}

TEST(Service, CacheSaveRefusesASnapshotOverTheBound) {
  // Two snapshots that each fit load into one table whose snapshot does
  // not; cache_save refuses it before opening the path, so every saved
  // file can be loaded again.
  const Service service(small_options(1));
  for (const char fill : {'a', 'b'}) {
    TempFile part(std::string("cache_part_") + fill + ".json");
    {
      std::ofstream out(part.path());
      out << "{\"format\": \"rsp-eval-cache\", \"version\": 1, "
             "\"entries\": [{\"key\": \""
          << std::string(kMaxCacheFileBytes / 2, fill)
          << "\", \"cycles\": 1, \"stalls\": 0, \"nostall_cycles\": 1, "
             "\"max_critical_issues\": 0}]}\n";
    }
    EXPECT_EQ(service.cache_load({part.path()}).entries_loaded, 1u);
  }
  TempFile target("cache_too_big.json");
  try {
    service.cache_save({target.path()});
    FAIL() << "expected the oversized snapshot to be refused";
  } catch (const InvalidArgumentError& e) {
    EXPECT_EQ(std::string(e.what()),
              "cache file '" + target.path() + "' exceeds 16777216 bytes");
  }
  EXPECT_FALSE(std::filesystem::exists(target.path()));
}

TEST(Service, CacheSaveRejectsANonRegularTarget) {
  const Service service(small_options(1));
  EXPECT_THROW(service.cache_save({::testing::TempDir()}),
               InvalidArgumentError);
  EXPECT_THROW(service.cache_save({"/dev/null"}), InvalidArgumentError);
}

TEST(Service, CacheLoadRejectsATruncatedSnapshot) {
  // A snapshot cut mid-write (disk full, killed process) must be rejected
  // with a named parse error — and leave the cache untouched.
  TempFile file("cache_truncated.json");
  const Service warm(small_options());
  warm.eval({"SAD"});
  warm.cache_save({file.path()});
  std::string text;
  {
    std::ifstream in(file.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  ASSERT_GT(text.size(), 40u);
  {
    std::ofstream out(file.path(), std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  const Service fresh(small_options());
  const util::Json body = fresh.handle(CacheLoadRequest{file.path()});
  EXPECT_FALSE(body.at("ok").as_bool());
  EXPECT_NE(body.at("error").as_string().find("JSON parse error"),
            std::string::npos);
  EXPECT_EQ(fresh.cache_stats({}).stats.entries, 0u);
}

TEST(Service, CacheLoadRejectsACorruptedEntryWithoutPartialMerge) {
  // Valid JSON, valid header, but one entry's integer field replaced by a
  // string: the document must be rejected whole — entries validated before
  // the bad one must not leak into the table.
  TempFile file("cache_corrupt_entry.json");
  const Service warm(small_options());
  warm.eval({"SAD"});
  util::Json doc = saved_snapshot(warm, file);
  const util::Json& entries = doc.at("entries");
  ASSERT_GT(entries.size(), 1u);
  util::Json corrupted = util::Json::array();
  for (std::size_t i = 0; i + 1 < entries.size(); ++i)
    corrupted.push(entries.at(i));
  util::Json bad = entries.at(entries.size() - 1);
  bad.set("cycles", "not-a-number");
  corrupted.push(std::move(bad));
  doc.set("entries", std::move(corrupted));
  {
    std::ofstream out(file.path());
    out << doc.dump() << "\n";
  }
  const Service fresh(small_options());
  const util::Json body = fresh.handle(CacheLoadRequest{file.path()});
  EXPECT_FALSE(body.at("ok").as_bool());
  EXPECT_NE(body.at("error").as_string().find("cycles"), std::string::npos);
  EXPECT_EQ(fresh.cache_stats({}).stats.entries, 0u);  // nothing half-loaded
}

// ---------------------------------------------------------------- protocol

TEST(Protocol, DecodeV2RejectsBadEnvelopes) {
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& needle) {
    const util::Json doc = util::Json::parse(text);
    try {
      decode_v2_request(doc);
      FAIL() << "expected rejection: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << text << " -> " << e.what();
    }
  };
  expect_rejected(R"("ping")", "must be a JSON object");
  expect_rejected(R"({"id": "a", "op": "ping"})", "protocol_version");
  expect_rejected(R"({"protocol_version": 1, "id": "a", "op": "ping"})",
                  "unsupported protocol_version 1");
  expect_rejected(R"({"protocol_version": 2, "op": "ping"})", "missing request 'id'");
  expect_rejected(R"({"protocol_version": 2, "id": true, "op": "ping"})",
                  "'id' must be a string or number");
  expect_rejected(R"({"protocol_version": 2, "id": "a"})", "missing 'op'");
  expect_rejected(R"({"protocol_version": 2, "id": "a", "op": "warp"})",
                  "unknown op 'warp'");
  expect_rejected(
      R"({"protocol_version": 2, "id": "a", "op": "eval", "kernle": "SAD"})",
      "unknown field 'kernle'");
  expect_rejected(R"({"protocol_version": 2, "id": "a", "op": "eval"})",
                  "requires a 'kernel' field");
  expect_rejected(
      R"({"protocol_version": 2, "id": "a", "op": "ping", "delay_ms": 1.5})",
      "'delay_ms' must be an integer");
}

TEST(Protocol, RejectsNonsensicalDseConfigsInBand) {
  // An explicit zero/negative bound or ratio would silently explore an
  // empty or nonsensical grid — it must come back as an in-band error.
  const auto expect_rejected = [](const std::string& config_fragment,
                                  const std::string& needle) {
    const std::string text =
        R"({"protocol_version": 2, "id": "a", "op": "dse", "config": {)" +
        config_fragment + "}}";
    try {
      decode_v2_request(util::Json::parse(text));
      FAIL() << "expected rejection of " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << text << " -> " << e.what();
    }
  };
  expect_rejected(R"("max_units_per_row": 0)",
                  "'max_units_per_row' must be positive");
  expect_rejected(R"("max_units_per_col": -1)",
                  "'max_units_per_col' must be positive");
  expect_rejected(R"("max_stages": 0)", "'max_stages' must be positive");
  expect_rejected(R"("max_area_ratio": 0)",
                  "'max_area_ratio' must be positive");
  expect_rejected(R"("max_time_ratio": -2.5)",
                  "'max_time_ratio' must be positive");
  expect_rejected(R"("pareto_epsilon": -0.1)",
                  "'pareto_epsilon' must be non-negative");
  // A typo'd key silently running the default objective would look like a
  // successful exploration; a fractional bound must not be truncated.
  expect_rejected(R"("objetive": "min_area")",
                  "unknown config key 'objetive'");
  expect_rejected(R"("max_stages": 3.7)",
                  "config key 'max_stages' must be an integer");

  // The rejection is an InvalidArgumentError, and a Service handed such a
  // config anyway turns it into an {"ok": false} body rather than a dead
  // request.
  EXPECT_THROW(
      decode_v2_request(util::Json::parse(
          R"({"protocol_version": 2, "id": "a", "op": "dse",)"
          R"( "config": {"max_stages": 0}})")),
      InvalidArgumentError);
  Service service(small_options(1));
  DseRequest bad;
  bad.config.max_stages = 0;
  const util::Json body = service.handle(bad);
  EXPECT_FALSE(body.at("ok").as_bool());
  EXPECT_NE(body.at("error").as_string().find("max_stages"),
            std::string::npos);
}

TEST(Service, CacheStatsReportMappingAndEvictionFields) {
  ServiceOptions options = small_options(1);
  options.cache_max_entries = 64;
  const Service service(options);
  service.eval({"SAD"});
  service.map({"SAD", "RSP#2"});  // served without remapping

  const CacheStatsResponse stats = service.cache_stats({});
  EXPECT_EQ(stats.stats.max_entries, 64u);
  EXPECT_EQ(stats.mapping_stats.max_entries, 64u);
  EXPECT_EQ(stats.mapping_stats.entries, 1u);  // one kernel mapped once
  EXPECT_GT(stats.mapping_stats.hits, 0u);     // map reused eval's record

  const util::Json body = service.handle(CacheStatsRequest{});
  EXPECT_TRUE(body.at("ok").as_bool());
  EXPECT_EQ(body.at("evictions").as_number(), 0);
  EXPECT_EQ(body.at("max_entries").as_number(), 64);
  EXPECT_EQ(body.at("mapping").at("entries").as_number(), 1);
  EXPECT_TRUE(body.at("estimates").is_object());
  EXPECT_GE(body.at("estimates").at("entries").as_number(), 0);
  EXPECT_EQ(body.at("schedules").at("entries").as_number(), 1);  // map's
  EXPECT_EQ(body.at("schedules").at("max_entries").as_number(), 64);

  // PR-6: the simulation-run memo table reports its own section.
  EXPECT_TRUE(body.at("sim").is_object());
  EXPECT_EQ(body.at("sim").at("entries").as_number(), 0);
  EXPECT_EQ(body.at("sim").at("max_entries").as_number(), 64);
  service.simulate({"SAD", "RSP#2"});
  const util::Json after = service.handle(CacheStatsRequest{});
  EXPECT_EQ(after.at("sim").at("entries").as_number(), 1);
  // The simulation ran on the context map had already scheduled.
  EXPECT_EQ(after.at("schedules").at("entries").as_number(), 1);
  EXPECT_EQ(after.at("schedules").at("hits").as_number(), 1);
}

TEST(Protocol, DecodeV2ParsesTypedPayloads) {
  const util::Json doc = util::Json::parse(
      R"({"protocol_version": 2, "id": "a", "op": "dse",)"
      R"( "kernels": ["SAD"], "config": {"max_stages": 3}})");
  const Request request = decode_v2_request(doc);
  const DseRequest& dse_request = std::get<DseRequest>(request);
  ASSERT_EQ(dse_request.kernels.size(), 1u);
  EXPECT_EQ(dse_request.kernels[0], "SAD");
  EXPECT_EQ(dse_request.config.max_stages, 3);

  const Request map_request = decode_v2_request(util::Json::parse(
      R"({"protocol_version": 2, "id": 1, "op": "map",)"
      R"( "kernel": "SAD", "arch": "RSP#4"})"));
  EXPECT_EQ(std::get<MapRequest>(map_request).arch, "RSP#4");
}

TEST(Protocol, DecodeV2ParsesSimulateAndBatch) {
  const Request plain = decode_v2_request(util::Json::parse(
      R"({"protocol_version": 2, "id": 1, "op": "simulate",)"
      R"( "kernel": "SAD", "arch": "RSP#4"})"));
  EXPECT_EQ(std::get<SimulateRequest>(plain).arch, "RSP#4");

  const Request batch = decode_v2_request(util::Json::parse(
      R"({"protocol_version": 2, "id": 1, "op": "simulate_batch",)"
      R"( "kernel": "SAD", "archs": ["Base", "RSP#1"]})"));
  const SimulateBatchRequest& br = std::get<SimulateBatchRequest>(batch);
  ASSERT_EQ(br.archs.size(), 2u);
  EXPECT_EQ(br.archs[1], "RSP#1");

  // Omitting "archs" selects the whole standard suite downstream.
  const Request whole = decode_v2_request(util::Json::parse(
      R"({"protocol_version": 2, "id": 1, "op": "simulate_batch",)"
      R"( "kernel": "SAD"})"));
  EXPECT_TRUE(std::get<SimulateBatchRequest>(whole).archs.empty());

  try {
    decode_v2_request(util::Json::parse(
        R"({"protocol_version": 2, "id": 1, "op": "simulate_batch",)"
        R"( "kernel": "SAD", "archs": []})"));
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-empty array"),
              std::string::npos);
  }

  // The simulator has one engine; "engine" is no longer a field.
  for (const std::string op : {"simulate", "simulate_batch", "vcd"}) {
    const std::string target = op == "simulate_batch"
                                   ? R"("archs": ["Base"])"
                                   : R"("arch": "Base")";
    try {
      decode_v2_request(util::Json::parse(
          R"({"protocol_version": 2, "id": 1, "op": ")" + op +
          R"(", "kernel": "SAD", )" + target + R"(, "engine": "event"})"));
      FAIL() << "expected rejection for " << op;
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "unknown field 'engine' for op '" + op + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Protocol, SimulateBodiesCarryNoEngine) {
  const Service service(small_options(1));
  const util::Json single = service.handle(SimulateRequest{"SAD", "Base"});
  EXPECT_TRUE(single.at("ok").as_bool());
  EXPECT_FALSE(single.contains("engine")) << single.dump();
  const util::Json batch =
      service.handle(SimulateBatchRequest{"SAD", {"Base"}});
  EXPECT_TRUE(batch.at("ok").as_bool());
  EXPECT_FALSE(batch.contains("engine")) << batch.dump();
}

TEST(Protocol, EnvelopePutsVersionAndIdFirst) {
  util::Json body = util::Json::object();
  body.set("op", "ping").set("ok", true).set("delay_ms", 0);
  const util::Json response = encode_v2_response(util::Json("r1"), body);
  const std::vector<std::string> keys = response.keys();
  ASSERT_EQ(keys.size(), 5u);
  EXPECT_EQ(keys[0], "protocol_version");
  EXPECT_EQ(keys[1], "id");
  EXPECT_EQ(keys[2], "op");
  EXPECT_EQ(response.at("protocol_version").as_number(), kProtocolVersion);
  EXPECT_EQ(response.at("id").as_string(), "r1");
}

// ------------------------------------------------------------------- serve

struct ServeOutput {
  ServeResult result;
  std::vector<util::Json> lines;
  std::vector<std::string> raw_lines;  ///< exact bytes, for transport diffs
};

ServeOutput run_serve(Service& service, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  ServeOutput output;
  output.result = serve(service, in, out);
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) {
    output.raw_lines.push_back(line);
    output.lines.push_back(util::Json::parse(line));
  }
  return output;
}

TEST(Serve, StreamsResponsesOutOfOrderById) {
  // Delay sized for TSan on loaded CI runners: the immediate ping's
  // parse+dispatch+write round trip must complete inside it.
  Service service(small_options(2));
  const ServeOutput output = run_serve(
      service,
      "{\"protocol_version\": 2, \"id\": \"slow\", \"op\": \"ping\", "
      "\"delay_ms\": 1000}\n"
      "{\"protocol_version\": 2, \"id\": \"fast\", \"op\": \"ping\"}\n");
  EXPECT_EQ(output.result.requests, 2u);
  EXPECT_EQ(output.result.errors, 0u);
  ASSERT_EQ(output.lines.size(), 2u);
  // The immediate ping overtakes the delayed one submitted before it.
  EXPECT_EQ(output.lines[0].at("id").as_string(), "fast");
  EXPECT_EQ(output.lines[1].at("id").as_string(), "slow");
  for (const util::Json& line : output.lines) {
    EXPECT_TRUE(line.at("ok").as_bool());
    EXPECT_EQ(line.at("protocol_version").as_number(), kProtocolVersion);
  }
}

TEST(Serve, ProtocolErrorsAreInBandAndNonFatal) {
  // Malformed NDJSON, unknown ops (including the two retired distributed-
  // DSE worker ops, ids "s" and "w"), missing protocol_version, a
  // duplicate id and a JSON array line (the retired v1 batch document) —
  // each answered in-band, and the loop still serves the valid request
  // that follows.
  Service service(small_options(2));
  const ServeOutput output = run_serve(
      service,
      "{this is not json\n"
      "{\"protocol_version\": 2, \"id\": \"a\", \"op\": \"warp\"}\n"
      "{\"id\": \"b\", \"op\": \"ping\"}\n"
      "{\"protocol_version\": 2, \"id\": \"c\", \"op\": \"ping\"}\n"
      "{\"protocol_version\": 2, \"id\": \"c\", \"op\": \"ping\"}\n"
      "{\"protocol_version\": 2, \"id\": \"s\", \"op\": \"dse_shard\"}\n"
      "{\"protocol_version\": 2, \"id\": \"w\", \"op\": \"worker_info\"}\n"
      "[{\"op\": \"eval\", \"kernel\": \"SAD\"}]\n"
      "{\"protocol_version\": 2, \"id\": \"d\", \"op\": \"ping\"}\n");
  EXPECT_EQ(output.result.requests, 9u);
  EXPECT_EQ(output.result.errors, 7u);
  ASSERT_EQ(output.lines.size(), 9u);

  std::size_t ok_count = 0;
  bool saw_parse_error = false, saw_unknown_op = false,
       saw_missing_version = false, saw_duplicate = false, saw_array = false;
  std::size_t retired_ops = 0;
  for (const util::Json& line : output.lines) {
    if (line.at("ok").as_bool()) {
      ++ok_count;
      continue;
    }
    const std::string& error = line.at("error").as_string();
    if (error.find("JSON parse error") != std::string::npos) {
      saw_parse_error = true;
      EXPECT_TRUE(line.at("id").is_null());
    }
    if (error.find("unknown op 'warp'") != std::string::npos)
      saw_unknown_op = true;
    if (error.find("protocol_version") != std::string::npos)
      saw_missing_version = true;
    if (error.find("duplicate request id \"c\"") != std::string::npos)
      saw_duplicate = true;
    const util::Json& id = line.at("id");
    if (id.is_string() && (id.as_string() == "s" || id.as_string() == "w")) {
      ++retired_ops;
      EXPECT_NE(error.find("unknown op '"), std::string::npos) << error;
    }
    if (error.find("request must be a JSON object") != std::string::npos) {
      saw_array = true;
      EXPECT_TRUE(line.at("id").is_null());
    }
  }
  EXPECT_EQ(ok_count, 2u);  // "c" (first use) and "d"
  EXPECT_TRUE(saw_parse_error);
  EXPECT_TRUE(saw_unknown_op);
  EXPECT_TRUE(saw_missing_version);
  EXPECT_TRUE(saw_duplicate);
  EXPECT_EQ(retired_ops, 2u);
  EXPECT_TRUE(saw_array);
}

TEST(Serve, OverlongRequestLineIsRejectedInBand) {
  // A line past kMaxRequestLineBytes costs one in-band error with a null
  // id; the rest of it is discarded and the next line is served.
  Service service(small_options(1));
  const std::string overlong(4 * kMaxRequestLineBytes, 'x');
  const ServeOutput output = run_serve(
      service, overlong +
                   "\n{\"protocol_version\": 2, \"id\": \"p\", "
                   "\"op\": \"ping\"}\n");
  EXPECT_EQ(output.result.requests, 2u);
  EXPECT_EQ(output.result.errors, 1u);
  ASSERT_EQ(output.lines.size(), 2u);
  std::size_t rejected = 0, answered = 0;
  for (const util::Json& line : output.lines) {
    if (line.at("ok").as_bool()) {
      EXPECT_EQ(line.at("id").as_string(), "p");
      ++answered;
    } else {
      EXPECT_TRUE(line.at("id").is_null());
      EXPECT_NE(line.at("error").as_string().find("request line exceeds " +
                                                  std::to_string(
                                                      kMaxRequestLineBytes)),
                std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(answered, 1u);

  // A stream that ends inside an over-long line: one error, then the loop
  // returns normally.
  const ServeOutput truncated = run_serve(service, overlong);
  EXPECT_TRUE(truncated.result.output_ok);
  EXPECT_EQ(truncated.result.requests, 1u);
  EXPECT_EQ(truncated.result.errors, 1u);
  ASSERT_EQ(truncated.lines.size(), 1u);
  EXPECT_FALSE(truncated.lines[0].at("ok").as_bool());

  // A line exactly at the limit is still read whole (here: parsed and
  // rejected as malformed JSON, not as over-long).
  const ServeOutput at_limit =
      run_serve(service, std::string(kMaxRequestLineBytes, 'x') + "\n");
  ASSERT_EQ(at_limit.lines.size(), 1u);
  EXPECT_NE(at_limit.lines[0].at("error").as_string().find("JSON parse error"),
            std::string::npos);
}

TEST(Serve, OversizedDseGridIsRejectedInBand) {
  // Bounds a client sets beyond the array would make the explorer build an
  // unbounded grid; the request must fail in-band and the loop keep going.
  Service service(small_options(1));
  const ServeOutput output = run_serve(
      service,
      "{\"protocol_version\": 2, \"id\": \"huge\", \"op\": \"dse\", "
      "\"config\": {\"max_units_per_row\": 2147483647}}\n"
      "{\"protocol_version\": 2, \"id\": \"deep\", \"op\": \"dse\", "
      "\"config\": {\"max_stages\": 9}}\n"
      "{\"protocol_version\": 2, \"id\": \"p\", \"op\": \"ping\"}\n");
  EXPECT_EQ(output.result.errors, 2u);
  std::map<std::string, util::Json> by_id;
  for (const util::Json& line : output.lines)
    by_id.emplace(line.at("id").as_string(), line);
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_FALSE(by_id.at("huge").at("ok").as_bool());
  EXPECT_NE(by_id.at("huge").at("error").as_string().find(
                "'max_units_per_row' (2147483647) exceeds"),
            std::string::npos);
  EXPECT_FALSE(by_id.at("deep").at("ok").as_bool());
  EXPECT_NE(by_id.at("deep").at("error").as_string().find("'max_stages'"),
            std::string::npos);
  EXPECT_TRUE(by_id.at("p").at("ok").as_bool());
}

TEST(Serve, RepeatedBatchArchitectureIsRejectedInBand) {
  // Every listed name costs a context and a memory, so the second "Base"
  // of 1,000 fails the request in-band before any is built. An "engine"
  // field is an unknown field like any other.
  Service service(small_options(1));
  std::string archs = "\"Base\"";
  for (int i = 0; i < 999; ++i) archs += ", \"Base\"";
  const std::string batch =
      "{\"protocol_version\": 2, \"id\": \"dup\", \"op\": \"simulate_batch\", "
      "\"kernel\": \"SAD\", \"archs\": [" +
      archs + "]}\n";
  const std::string engine =
      "{\"protocol_version\": 2, \"id\": \"eng\", \"op\": \"simulate\", "
      "\"kernel\": \"SAD\", \"arch\": \"Base\", \"engine\": \"dense\"}\n";
  const std::string ping =
      "{\"protocol_version\": 2, \"id\": \"p\", \"op\": \"ping\"}\n";
  const ServeOutput output = run_serve(service, batch + engine + ping);
  EXPECT_EQ(output.result.errors, 2u);
  std::map<std::string, util::Json> by_id;
  for (const util::Json& line : output.lines)
    by_id.emplace(line.at("id").as_string(), line);
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_FALSE(by_id.at("dup").at("ok").as_bool());
  EXPECT_NE(by_id.at("dup").at("error").as_string().find(
                "architecture 'Base' is listed more than once"),
            std::string::npos);
  EXPECT_FALSE(by_id.at("eng").at("ok").as_bool());
  EXPECT_NE(by_id.at("eng").at("error").as_string().find(
                "unknown field 'engine' for op 'simulate'"),
            std::string::npos);
  EXPECT_TRUE(by_id.at("p").at("ok").as_bool());
}

TEST(Serve, ExecutionErrorsEchoTheRequestId) {
  Service service(small_options(2));
  const ServeOutput output = run_serve(
      service,
      "{\"protocol_version\": 2, \"id\": \"bad\", \"op\": \"eval\", "
      "\"kernel\": \"no-such-kernel\"}\n");
  ASSERT_EQ(output.lines.size(), 1u);
  EXPECT_EQ(output.result.errors, 1u);
  EXPECT_EQ(output.lines[0].at("id").as_string(), "bad");
  EXPECT_FALSE(output.lines[0].at("ok").as_bool());
  EXPECT_NE(output.lines[0].at("error").as_string().find("no-such-kernel"),
            std::string::npos);
}

TEST(Serve, BlankLinesAreSkipped) {
  Service service(small_options(1));
  const ServeOutput output = run_serve(
      service,
      "\n   \n{\"protocol_version\": 2, \"id\": \"x\", \"op\": \"list\"}\n");
  EXPECT_EQ(output.result.requests, 1u);
  ASSERT_EQ(output.lines.size(), 1u);
  EXPECT_TRUE(output.lines[0].at("ok").as_bool());
}

TEST(Serve, FailedOutputStreamStopsTheLoopAndIsReported) {
  Service service(small_options(1));
  // The first line's parse-error response is written synchronously by the
  // reader thread, so the stream failure is observed before line two is
  // read — the loop must stop there and report the loss.
  std::istringstream in(
      "{bogus\n"
      "{\"protocol_version\": 2, \"id\": \"b\", \"op\": \"ping\"}\n");
  std::ostringstream out;
  out.setstate(std::ios::badbit);  // every write fails
  const ServeResult result = serve(service, in, out);
  EXPECT_FALSE(result.output_ok);
  EXPECT_EQ(result.requests, 1u);
}

TEST(Serve, NumericIdsEchoVerbatim) {
  Service service(small_options(1));
  const ServeOutput output = run_serve(
      service, "{\"protocol_version\": 2, \"id\": 7, \"op\": \"ping\"}\n");
  ASSERT_EQ(output.lines.size(), 1u);
  ASSERT_TRUE(output.lines[0].at("id").is_number());
  EXPECT_EQ(output.lines[0].at("id").as_number(), 7);
}

TEST(Serve, SeenIdWindowAllowsReuseOnceEvicted) {
  // A duplicate inside the sliding window is rejected; an id older than
  // the window's last accepted ids may be reused — the bound that keeps
  // long-lived socket connections at constant memory.
  SeenIdWindow window(2);
  EXPECT_TRUE(window.insert("a"));
  EXPECT_FALSE(window.insert("a"));  // duplicate
  EXPECT_TRUE(window.insert("b"));
  EXPECT_TRUE(window.insert("c"));  // evicts a
  EXPECT_TRUE(window.insert("a"));  // accepted again
  EXPECT_FALSE(window.insert("c"));
}

TEST(Serve, RejectedDuplicateDoesNotAgeTheWindow) {
  // Only *accepted* ids enter the window: hammering a duplicate must not
  // evict the id it collides with (which would re-admit the duplicate).
  SeenIdWindow window(1);
  EXPECT_TRUE(window.insert("a"));
  EXPECT_FALSE(window.insert("a"));
  EXPECT_FALSE(window.insert("a"));
  EXPECT_TRUE(window.insert("b"));  // evicts a
  EXPECT_TRUE(window.insert("a"));
}

/// An input stream of `lines` (each ending in a newline) that hands its
/// reader one line per underflow and counts the lines handed out.
class LineFeed : public std::streambuf {
 public:
  explicit LineFeed(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}
  std::size_t handed_out() const { return handed_out_.load(); }

 protected:
  int_type underflow() override {
    const std::size_t next = handed_out_.load();
    if (next == lines_.size()) return traits_type::eof();
    std::string& line = lines_[next];
    setg(line.data(), line.data(), line.data() + line.size());
    handed_out_.store(next + 1);
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  std::atomic<std::size_t> handed_out_{0};
};

/// An output stream whose writes block until open(): a client that does
/// not read its responses yet.
class GatedSink : public std::streambuf {
 public:
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }
  std::string text() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return text_;
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::unique_lock<std::mutex> lock(mutex_);
    opened_.wait(lock, [this] { return open_; });
    text_.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof()))
      return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
  std::string text_;
};

TEST(Serve, StopsReadingAtTheUnansweredBound) {
  // The first response blocks in the sink, so no request is answered: the
  // loop reads kMaxUnansweredRequests lines and then no more until a
  // response is written.
  Service service(small_options(1));
  const std::size_t total = kMaxUnansweredRequests + 8;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < total; ++i)
    lines.push_back("{\"protocol_version\": 2, \"id\": " +
                    std::to_string(i) + ", \"op\": \"ping\"}\n");
  LineFeed feed(std::move(lines));
  GatedSink sink;
  std::istream in(&feed);
  std::ostream out(&sink);
  std::future<ServeResult> served = std::async(
      std::launch::async, [&] { return serve(service, in, out); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (feed.handed_out() < kMaxUnansweredRequests &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Time in which a loop without the bound would read on.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(feed.handed_out(), kMaxUnansweredRequests);

  sink.open();
  const ServeResult result = served.get();
  EXPECT_EQ(result.requests, total);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(feed.handed_out(), total);
  const std::string text = sink.text();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            total);
}

TEST(Serve, CacheOpsWorkOverTheWire) {
  TempFile file("serve_cache.json");
  Service service(small_options());
  const ServeOutput output = run_serve(
      service,
      "{\"protocol_version\": 2, \"id\": \"e\", \"op\": \"eval\", "
      "\"kernel\": \"MVM\"}\n"
      "{\"protocol_version\": 2, \"id\": \"s\", \"op\": \"cache_save\", "
      "\"path\": \"" + file.path() + "\"}\n"
      "{\"protocol_version\": 2, \"id\": \"st\", \"op\": \"cache_stats\"}\n");
  EXPECT_EQ(output.result.errors, 0u);
  ASSERT_EQ(output.lines.size(), 3u);
  for (const util::Json& line : output.lines)
    EXPECT_TRUE(line.at("ok").as_bool());

  // Serve runs requests concurrently, so the snapshot may be taken before
  // eval finishes populating the table — assert only that whatever was
  // saved round-trips cleanly into a fresh cache.
  runtime::EvalCache fresh;
  std::ifstream saved(file.path());
  std::ostringstream text;
  text << saved.rdbuf();
  fresh.deserialize(util::Json::parse(text.str()));
  SUCCEED();
}

// ------------------------------------------------------------------ socket

// Runs server.run() on a background thread; the destructor initiates
// shutdown and joins, so a failing assertion can't leak the thread.
class ServerRunner {
 public:
  explicit ServerRunner(SocketServer& server)
      : server_(server), thread_([&server] { server.run(); }) {}
  ~ServerRunner() {
    server_.shutdown();
    thread_.join();
  }

 private:
  SocketServer& server_;
  std::thread thread_;
};

std::vector<std::string> client_round_trip(const ListenAddress& address,
                                           const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  run_socket_client(address, in, out);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

// Responses stream out of completion order on both transports; sorting
// makes "same response set, byte-identical lines" assertable.
std::vector<std::string> sorted(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(Socket, ParseListenAddressForms) {
  ListenAddress address = parse_listen_address("/run/rsp.sock");
  EXPECT_EQ(address.kind, ListenAddress::Kind::kUnix);
  EXPECT_EQ(address.path, "/run/rsp.sock");
  EXPECT_EQ(address.spec(), "/run/rsp.sock");
  // No '/' and no ':' is still a unix path (relative, cwd).
  EXPECT_EQ(parse_listen_address("rsp.sock").kind,
            ListenAddress::Kind::kUnix);
  // A path containing ':' stays a unix path as long as it has a '/'.
  EXPECT_EQ(parse_listen_address("./odd:name.sock").kind,
            ListenAddress::Kind::kUnix);

  address = parse_listen_address("127.0.0.1:8080");
  EXPECT_EQ(address.kind, ListenAddress::Kind::kTcp);
  EXPECT_EQ(address.host, "127.0.0.1");
  EXPECT_EQ(address.port, 8080);
  EXPECT_EQ(address.spec(), "127.0.0.1:8080");
  address = parse_listen_address(":0");
  EXPECT_EQ(address.kind, ListenAddress::Kind::kTcp);
  EXPECT_EQ(address.host, "");
  EXPECT_EQ(address.port, 0);

  EXPECT_THROW(parse_listen_address(""), InvalidArgumentError);
  EXPECT_THROW(parse_listen_address("host:"), InvalidArgumentError);
  EXPECT_THROW(parse_listen_address("host:notaport"), InvalidArgumentError);
  EXPECT_THROW(parse_listen_address("host:70000"), InvalidArgumentError);
}

TEST(Socket, RejectsBadServerConfigs) {
  Service service(small_options(1));
  EXPECT_THROW(SocketServer(service, {}), InvalidArgumentError);
  SocketServerOptions zero_connections;
  zero_connections.max_connections = 0;
  EXPECT_THROW(
      SocketServer(service, {parse_listen_address(":0")}, zero_connections),
      InvalidArgumentError);
  EXPECT_THROW(SocketServer(service,
                            {parse_listen_address("/nonexistent-dir/x.sock")}),
               Error);
}

TEST(Socket, BindRefusesToReplaceNonSocketFile) {
  // A typo'd --listen path must never delete data: binding over an
  // existing regular file fails and leaves the file intact.
  TempFile file("not_a_socket");
  {
    std::ofstream out(file.path());
    out << "precious\n";
  }
  Service service(small_options(1));
  try {
    SocketServer server(service, {parse_listen_address(file.path())});
    FAIL() << "expected the bind to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-socket"), std::string::npos);
  }
  std::ifstream check(file.path());
  std::string contents;
  std::getline(check, contents);
  EXPECT_EQ(contents, "precious");
}

TEST(Socket, BindRefusesToStealLiveServerSocket) {
  // Unlink-before-bind only clears *debris*: a second server on the path
  // of a live one must fail, not silently strand the first server.
  TempFile socket_path("live.sock");
  Service service(small_options(2));
  SocketServer first(service, {parse_listen_address(socket_path.path())});
  ServerRunner runner(first);
  try {
    SocketServer second(service, {parse_listen_address(socket_path.path())});
    FAIL() << "expected the second bind to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("running server"),
              std::string::npos);
  }
  // The live server is unharmed by the refused bind.
  const std::vector<std::string> lines = client_round_trip(
      first.addresses()[0],
      "{\"protocol_version\": 2, \"id\": \"p\", \"op\": \"ping\"}\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(util::Json::parse(lines[0]).at("ok").as_bool());
}

TEST(Socket, SecondShutdownForceClosesNonReadingClient) {
  // A peer that sends requests but never reads responses jams dispatch
  // threads inside send() once the socket buffers fill, so a graceful
  // drain alone could wait forever. The escalation contract: a second
  // shutdown() force-closes such connections and run() still returns.
  TempFile socket_path("force.sock");
  Service service(small_options(2));
  SocketServer server(service,
                      {parse_listen_address(socket_path.path())});
  std::thread run_thread([&server] { server.run(); });

  const int fd = connect_socket(server.addresses()[0]);
  {
    SocketStreamBuf buf(fd);
    std::ostream sock_out(&buf);
    // ~300 eval responses (~2.6KB each) far exceed the server-side stream
    // buffer plus both kernel socket buffers — the writer must jam.
    for (int i = 0; i < 300; ++i)
      sock_out << "{\"protocol_version\": 2, \"id\": \"e" << i
               << "\", \"op\": \"eval\", \"kernel\": \"SAD\"}\n";
    sock_out.flush();
  }
  // Give the server time to read the burst and wedge in send(); the
  // escalation works regardless, this just makes the jam the common case.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server.shutdown();  // graceful: would hang on the wedged connection
  server.shutdown();  // escalate: force-close it
  run_thread.join();  // must return; a hang fails via the test timeout
  ::close(fd);
  EXPECT_EQ(server.stats().active, 0u);
  EXPECT_EQ(server.stats().accepted, 1u);
}

TEST(Socket, UnixLoopbackByteIdenticalToStdinServe) {
  const std::string requests =
      "{\"protocol_version\": 2, \"id\": \"e\", \"op\": \"eval\", "
      "\"kernel\": \"SAD\"}\n"
      "{\"protocol_version\": 2, \"id\": \"m\", \"op\": \"map\", "
      "\"kernel\": \"SAD\", \"arch\": \"RSP#4\"}\n"
      "{\"protocol_version\": 2, \"id\": \"l\", \"op\": \"list\"}\n"
      "{\"protocol_version\": 2, \"id\": \"bad\", \"op\": \"warp\"}\n";
  Service pipe_service(small_options());
  const ServeOutput reference = run_serve(pipe_service, requests);

  TempFile socket_path("loopback.sock");
  Service service(small_options());
  SocketServer server(service,
                      {parse_listen_address(socket_path.path())});
  ServerRunner runner(server);
  const std::vector<std::string> lines =
      client_round_trip(server.addresses()[0], requests);
  EXPECT_EQ(sorted(lines), sorted(reference.raw_lines));
}

TEST(Socket, TcpEphemeralPortRoundTrip) {
  Service service(small_options(2));
  SocketServer server(service, {parse_listen_address("127.0.0.1:0")});
  ASSERT_EQ(server.addresses().size(), 1u);
  EXPECT_GT(server.addresses()[0].port, 0);  // ephemeral port resolved
  ServerRunner runner(server);
  const std::vector<std::string> lines = client_round_trip(
      server.addresses()[0],
      "{\"protocol_version\": 2, \"id\": \"p\", \"op\": \"ping\"}\n");
  ASSERT_EQ(lines.size(), 1u);
  const util::Json response = util::Json::parse(lines[0]);
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("id").as_string(), "p");
}

TEST(Socket, ConcurrentClientsIsolatedIdScopesByteIdentical) {
  // Two clients interleave eval/dse/ping traffic over ONE shared service,
  // REUSING each other's request ids: id scopes are per-connection, and
  // each client's response set stays byte-identical to a stdin serve run
  // of the same stream (shared caches must not leak into payloads).
  const std::string requests_a =
      "{\"protocol_version\": 2, \"id\": \"r1\", \"op\": \"eval\", "
      "\"kernel\": \"SAD\"}\n"
      "{\"protocol_version\": 2, \"id\": \"r2\", \"op\": \"dse\", "
      "\"kernels\": [\"SAD\"], \"config\": {\"max_units_per_row\": 2, "
      "\"max_units_per_col\": 1, \"max_stages\": 2}}\n"
      "{\"protocol_version\": 2, \"id\": \"r3\", \"op\": \"ping\"}\n";
  const std::string requests_b =
      "{\"protocol_version\": 2, \"id\": \"r1\", \"op\": \"eval\", "
      "\"kernel\": \"MVM\"}\n"
      "{\"protocol_version\": 2, \"id\": \"r2\", \"op\": \"ping\", "
      "\"delay_ms\": 20}\n"
      "{\"protocol_version\": 2, \"id\": \"r3\", \"op\": \"map\", "
      "\"kernel\": \"MVM\", \"arch\": \"RSP#2\"}\n";

  Service reference_a_service(small_options());
  const ServeOutput reference_a = run_serve(reference_a_service, requests_a);
  Service reference_b_service(small_options());
  const ServeOutput reference_b = run_serve(reference_b_service, requests_b);

  TempFile socket_path("concurrent.sock");
  Service service(small_options(4));
  SocketServer server(service,
                      {parse_listen_address(socket_path.path())});
  ServerRunner runner(server);
  const ListenAddress& address = server.addresses()[0];
  std::vector<std::string> lines_a, lines_b;
  std::thread client_a(
      [&] { lines_a = client_round_trip(address, requests_a); });
  std::thread client_b(
      [&] { lines_b = client_round_trip(address, requests_b); });
  client_a.join();
  client_b.join();

  // Every id was answered ok on both connections — a cross-connection id
  // scope would have turned one side's stream into duplicate-id errors.
  EXPECT_EQ(sorted(lines_a), sorted(reference_a.raw_lines));
  EXPECT_EQ(sorted(lines_b), sorted(reference_b.raw_lines));
  for (const std::string& line : lines_a)
    EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool()) << line;
  for (const std::string& line : lines_b)
    EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool()) << line;
}

TEST(Socket, ConnectionLimitAnsweredInBand) {
  TempFile socket_path("limit.sock");
  Service service(small_options(2));
  SocketServerOptions options;
  options.max_connections = 1;
  SocketServer server(service, {parse_listen_address(socket_path.path())},
                      options);
  ServerRunner runner(server);
  const ListenAddress& address = server.addresses()[0];

  // Hold the one allowed connection open — and prove the server has
  // *registered* it (not merely accepted the TCP/unix handshake) by
  // completing a round trip before the second client connects.
  const int fd = connect_socket(address);
  SocketStreamBuf buf(fd);
  std::istream sock_in(&buf);
  std::ostream sock_out(&buf);
  sock_out << "{\"protocol_version\": 2, \"id\": \"hold\", \"op\": "
              "\"ping\"}\n"
           << std::flush;
  std::string line;
  ASSERT_TRUE(std::getline(sock_in, line));
  EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool());

  const std::vector<std::string> rejected = client_round_trip(
      address,
      "{\"protocol_version\": 2, \"id\": \"r\", \"op\": \"ping\"}\n");
  ASSERT_EQ(rejected.size(), 1u);
  const util::Json response = util::Json::parse(rejected[0]);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("connection limit"),
            std::string::npos);
  EXPECT_TRUE(response.at("id").is_null());
  EXPECT_EQ(server.stats().rejected, 1u);

  // Releasing the held connection frees the slot for a new client.
  ::shutdown(fd, SHUT_WR);
  while (std::getline(sock_in, line)) {
  }
  ::close(fd);
  const std::vector<std::string> accepted = client_round_trip(
      address,
      "{\"protocol_version\": 2, \"id\": \"r\", \"op\": \"ping\"}\n");
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_TRUE(util::Json::parse(accepted[0]).at("ok").as_bool());
}

TEST(Socket, GracefulShutdownDrainsInflightRequests) {
  TempFile socket_path("drain.sock");
  Service service(small_options(2));
  SocketServer server(service,
                      {parse_listen_address(socket_path.path())});
  std::thread run_thread([&server] { server.run(); });

  const int fd = connect_socket(server.addresses()[0]);
  SocketStreamBuf buf(fd);
  std::istream sock_in(&buf);
  std::ostream sock_out(&buf);
  // Round trip an immediate ping first so the delayed one is provably
  // *read* (same single-reader loop) before shutdown is requested.
  sock_out << "{\"protocol_version\": 2, \"id\": \"warm\", \"op\": "
              "\"ping\"}\n"
           << std::flush;
  std::string line;
  ASSERT_TRUE(std::getline(sock_in, line));
  // Delay sized for TSan on loaded CI runners: shutdown() below must land
  // while this request is still in flight for the drain to be observable
  // (and the test still passes — more slowly — if it has already
  // completed).
  sock_out << "{\"protocol_version\": 2, \"id\": \"slow\", \"op\": "
              "\"ping\", \"delay_ms\": 1000}\n"
           << std::flush;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.shutdown();
  // The in-flight response still arrives, then the server closes cleanly.
  ASSERT_TRUE(std::getline(sock_in, line));
  const util::Json response = util::Json::parse(line);
  EXPECT_EQ(response.at("id").as_string(), "slow");
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_FALSE(std::getline(sock_in, line));  // EOF: connection drained
  ::close(fd);
  run_thread.join();

  const SocketServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Socket, CacheStatsFoldsServerSection) {
  TempFile socket_path("stats.sock");
  Service service(small_options(2));
  SocketServerOptions options;
  options.max_connections = 7;
  SocketServer server(service, {parse_listen_address(socket_path.path())},
                      options);
  service.set_stats_extension([&server] { return server.stats_json(); });
  ServerRunner runner(server);
  const std::vector<std::string> lines = client_round_trip(
      server.addresses()[0],
      "{\"protocol_version\": 2, \"id\": \"s\", \"op\": \"cache_stats\"}\n");
  ASSERT_EQ(lines.size(), 1u);
  const util::Json response = util::Json::parse(lines[0]);
  EXPECT_TRUE(response.at("ok").as_bool());
  const util::Json& section = response.at("server");
  EXPECT_EQ(section.at("connections").at("accepted").as_number(), 1);
  EXPECT_EQ(section.at("connections").at("active").as_number(), 1);
  EXPECT_EQ(section.at("connections").at("max").as_number(), 7);
  EXPECT_EQ(section.at("connections").at("rejected").as_number(), 0);

  // The pipe transport installs no extension: no "server" section there.
  Service pipe_service(small_options(1));
  const ServeOutput pipe = run_serve(
      pipe_service,
      "{\"protocol_version\": 2, \"id\": \"s\", \"op\": \"cache_stats\"}\n");
  EXPECT_FALSE(pipe.lines[0].contains("server"));
}

}  // namespace
}  // namespace rsp::api
