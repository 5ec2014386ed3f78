// The distributed-DSE stack: worker-side shard executors (rsp::runtime),
// the v2 `dse_shard`/`worker_info` codec, connect retries, and the
// DseCoordinator end to end against in-process socket workers — including
// the resilience paths (worker death mid-run with redispatch, scripted
// connection drops with health-probe re-admission, the all-workers-lost
// local fallback and its opt-out abort, in-band shard rejection). The
// Dist* suites also run under the tsan preset: the coordinator's pull
// queue, its prober thread and the shard executors' fan-outs are
// exercised with ThreadSanitizer watching.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "api/protocol.hpp"
#include "api/service.hpp"
#include "api/socket_server.hpp"
#include "dist/coordinator.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "runtime/dist_shard.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/mapping_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace rsp::dist {
namespace {

api::ServiceOptions small_options(int threads = 2, int max_inflight = 2) {
  api::ServiceOptions options;
  options.threads = threads;
  options.max_inflight = max_inflight;
  return options;
}

// A grid small enough that exact evaluation stays cheap but still has
// several Pareto survivors to shard.
dse::ExplorerConfig small_dse_config() {
  dse::ExplorerConfig config;
  config.max_units_per_row = 2;
  config.max_units_per_col = 1;
  config.max_stages = 2;
  return config;
}

std::vector<kernels::Workload> small_domain() {
  return {kernels::find_workload("SAD"), kernels::find_workload("MVM")};
}

// Runs server.run() on a background thread; the destructor initiates
// shutdown and joins, so a failing assertion can't leak the thread.
class ServerRunner {
 public:
  explicit ServerRunner(api::SocketServer& server)
      : server_(server), thread_([&server] { server.run(); }) {}
  ~ServerRunner() {
    server_.shutdown();
    thread_.join();
  }

 private:
  api::SocketServer& server_;
  std::thread thread_;
};

// Every field of the merged exploration result must match the
// single-process answer exactly — including the doubles, which the
// coordinator recomputes locally rather than parsing off the wire, so
// plain == is the right comparison.
void expect_identical(const api::DseResponse& got,
                      const api::DseResponse& expect) {
  EXPECT_EQ(got.kernels, expect.kernels);
  EXPECT_EQ(got.result.base_area, expect.result.base_area);
  EXPECT_EQ(got.result.base_cycles, expect.result.base_cycles);
  EXPECT_EQ(got.result.base_time_ns, expect.result.base_time_ns);
  EXPECT_EQ(got.result.selected, expect.result.selected);
  ASSERT_EQ(got.result.candidates.size(), expect.result.candidates.size());
  for (std::size_t i = 0; i < expect.result.candidates.size(); ++i) {
    const dse::Candidate& g = got.result.candidates[i];
    const dse::Candidate& e = expect.result.candidates[i];
    EXPECT_EQ(g.point.label(), e.point.label()) << "candidate " << i;
    EXPECT_EQ(g.area_estimate, e.area_estimate) << "candidate " << i;
    EXPECT_EQ(g.area_synthesized, e.area_synthesized) << "candidate " << i;
    EXPECT_EQ(g.clock_ns, e.clock_ns) << "candidate " << i;
    EXPECT_EQ(g.estimated_cycles, e.estimated_cycles) << "candidate " << i;
    EXPECT_EQ(g.estimated_time_ns, e.estimated_time_ns) << "candidate " << i;
    EXPECT_EQ(g.rejected, e.rejected) << "candidate " << i;
    EXPECT_EQ(g.reject_reason, e.reject_reason) << "candidate " << i;
    EXPECT_EQ(g.pareto, e.pareto) << "candidate " << i;
    EXPECT_EQ(g.evaluated, e.evaluated) << "candidate " << i;
    EXPECT_EQ(g.exact_cycles, e.exact_cycles) << "candidate " << i;
    EXPECT_EQ(g.exact_time_ns, e.exact_time_ns) << "candidate " << i;
    EXPECT_EQ(g.total_stalls, e.total_stalls) << "candidate " << i;
  }
}

// ------------------------------------------------------- shard executors

TEST(Dist, EstimateShardMatchesSerialPrepare) {
  const std::vector<kernels::Workload> domain = small_domain();
  const dse::Explorer explorer(domain.front().array, small_dse_config());
  const dse::PreparedExploration prep = explorer.prepare(domain);
  const std::size_t n = prep.result.candidates.size();
  ASSERT_GT(n, 2u);

  runtime::ThreadPool pool(2);
  runtime::MappingCache mapping_cache;
  const std::size_t mid = n / 2;
  const runtime::EstimateShard lo =
      runtime::estimate_shard(explorer, domain, 0, mid, pool, &mapping_cache);
  const runtime::EstimateShard hi =
      runtime::estimate_shard(explorer, domain, mid, n, pool, &mapping_cache);

  // Every shard reports the whole-domain base schedule, and the
  // concatenated per-point sums are the serial prepare's estimates.
  EXPECT_EQ(lo.base_cycles, prep.result.base_cycles);
  EXPECT_EQ(hi.base_cycles, prep.result.base_cycles);
  ASSERT_EQ(lo.estimated_cycles.size(), mid);
  ASSERT_EQ(hi.estimated_cycles.size(), n - mid);
  for (std::size_t i = 0; i < n; ++i) {
    const long got = i < mid ? lo.estimated_cycles[i]
                             : hi.estimated_cycles[i - mid];
    EXPECT_EQ(got, prep.result.candidates[i].estimated_cycles)
        << "point " << i;
  }

  // The uncached path computes the same integers.
  const runtime::EstimateShard cold =
      runtime::estimate_shard(explorer, domain, 0, n, pool, nullptr);
  EXPECT_EQ(cold.base_cycles, prep.result.base_cycles);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(cold.estimated_cycles[i],
              prep.result.candidates[i].estimated_cycles);
}

TEST(Dist, ExactShardAgreesAcrossSplitsAndCacheStates) {
  const std::vector<kernels::Workload> domain = small_domain();
  const dse::Explorer explorer(domain.front().array, small_dse_config());
  const std::size_t n = explorer.enumerate_points().size();

  runtime::ThreadPool pool(2);
  runtime::MappingCache mapping_cache;
  runtime::EvalCache eval_cache;
  const runtime::ExactShard whole = runtime::exact_shard(
      explorer, domain, 0, n, pool, &mapping_cache, &eval_cache);
  ASSERT_EQ(whole.cycles.size(), n);
  ASSERT_EQ(whole.stalls.size(), n);

  // Single-point shards against the now-warm caches: identical rows —
  // shard geometry and cache temperature can only skip work, never change
  // a number.
  for (std::size_t i = 0; i < n; ++i) {
    const runtime::ExactShard one = runtime::exact_shard(
        explorer, domain, i, i + 1, pool, &mapping_cache, &eval_cache);
    ASSERT_EQ(one.cycles.size(), 1u);
    EXPECT_EQ(one.cycles[0], whole.cycles[i]) << "point " << i;
    EXPECT_EQ(one.stalls[0], whole.stalls[i]) << "point " << i;
    ASSERT_EQ(one.cycles[0].size(), domain.size());
  }

  // And fully uncached.
  const runtime::ExactShard cold =
      runtime::exact_shard(explorer, domain, 0, n, pool, nullptr, nullptr);
  EXPECT_EQ(cold.cycles, whole.cycles);
  EXPECT_EQ(cold.stalls, whole.stalls);
}

TEST(Dist, ShardBoundsAreValidated) {
  const std::vector<kernels::Workload> domain = small_domain();
  const dse::Explorer explorer(domain.front().array, small_dse_config());
  const std::size_t n = explorer.enumerate_points().size();
  runtime::ThreadPool pool(1);

  EXPECT_THROW(
      runtime::estimate_shard(explorer, domain, 1, 1, pool, nullptr),
      InvalidArgumentError);
  EXPECT_THROW(
      runtime::estimate_shard(explorer, domain, 2, 1, pool, nullptr),
      InvalidArgumentError);
  EXPECT_THROW(
      runtime::estimate_shard(explorer, domain, 0, n + 1, pool, nullptr),
      InvalidArgumentError);
  EXPECT_THROW(runtime::exact_shard(explorer, domain, n, n, pool, nullptr,
                                    nullptr),
               InvalidArgumentError);
  EXPECT_THROW(runtime::exact_shard(explorer, domain, n - 1, n + 1, pool,
                                    nullptr, nullptr),
               InvalidArgumentError);
}

// ---------------------------------------------------------------- protocol

TEST(DistProtocol, DecodeDseShardParsesTypedPayloads) {
  const api::Request request = api::decode_v2_request(util::Json::parse(
      R"({"protocol_version": 2, "id": "a", "op": "dse_shard",)"
      R"( "kernels": ["SAD"], "config": {"max_stages": 2},)"
      R"( "begin": 8, "end": 16, "mode": "estimate"})"));
  const api::DseShardRequest& shard = std::get<api::DseShardRequest>(request);
  ASSERT_EQ(shard.kernels.size(), 1u);
  EXPECT_EQ(shard.kernels[0], "SAD");
  EXPECT_EQ(shard.config.max_stages, 2);
  EXPECT_EQ(shard.begin, 8);
  EXPECT_EQ(shard.end, 16);
  EXPECT_FALSE(shard.exact);

  const api::Request exact = api::decode_v2_request(util::Json::parse(
      R"({"protocol_version": 2, "id": 1, "op": "dse_shard",)"
      R"( "begin": 0, "end": 1, "mode": "exact"})"));
  EXPECT_TRUE(std::get<api::DseShardRequest>(exact).exact);
  // Omitted kernels = the paper suite, resolved worker-side.
  EXPECT_TRUE(std::get<api::DseShardRequest>(exact).kernels.empty());

  const api::Request info = api::decode_v2_request(util::Json::parse(
      R"({"protocol_version": 2, "id": 1, "op": "worker_info"})"));
  EXPECT_TRUE(std::holds_alternative<api::WorkerInfoRequest>(info));
}

TEST(DistProtocol, DecodeDseShardRejectsMalformedRequests) {
  const auto expect_rejected = [](const std::string& payload,
                                  const std::string& needle) {
    const std::string text =
        R"({"protocol_version": 2, "id": "a", )" + payload + "}";
    try {
      api::decode_v2_request(util::Json::parse(text));
      FAIL() << "expected rejection: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << text << " -> " << e.what();
    }
  };
  // Missing and ill-typed bounds.
  expect_rejected(R"("op": "dse_shard", "end": 4, "mode": "estimate")",
                  "requires a 'begin' field");
  expect_rejected(R"("op": "dse_shard", "begin": 0, "mode": "estimate")",
                  "requires a 'end' field");
  expect_rejected(
      R"("op": "dse_shard", "begin": "x", "end": 4, "mode": "estimate")",
      "'begin' must be an integer");
  expect_rejected(
      R"("op": "dse_shard", "begin": 0, "end": 1.5, "mode": "estimate")",
      "'end' must be an integer");
  // Negative, empty and inverted ranges.
  expect_rejected(
      R"("op": "dse_shard", "begin": -1, "end": 4, "mode": "estimate")",
      "'begin' must be non-negative");
  expect_rejected(
      R"("op": "dse_shard", "begin": 3, "end": 3, "mode": "estimate")",
      "shard range is empty");
  expect_rejected(
      R"("op": "dse_shard", "begin": 3, "end": 2, "mode": "estimate")",
      "shard range is empty");
  // Mode is mandatory and closed.
  expect_rejected(R"("op": "dse_shard", "begin": 0, "end": 4)",
                  "requires a 'mode' field");
  expect_rejected(
      R"("op": "dse_shard", "begin": 0, "end": 4, "mode": "fast")",
      "unknown shard mode 'fast'");
  // Strict field checking, same as every other v2 op.
  expect_rejected(
      R"("op": "dse_shard", "begin": 0, "end": 4, "mode": "estimate",)"
      R"( "bogus": 1)",
      "unknown field 'bogus'");
  expect_rejected(R"("op": "worker_info", "verbose": true)",
                  "unknown field 'verbose'");
  // The unknown-op catalogue advertises the new worker ops.
  expect_rejected(R"("op": "warp")", "dse_shard, worker_info");
}

TEST(DistProtocol, EncodeDseConfigRoundTrips) {
  dse::ExplorerConfig config;
  config.max_units_per_row = 3;
  config.max_units_per_col = 2;
  config.max_stages = 3;
  config.max_area_ratio = 0.75;
  config.max_time_ratio = 2.5;
  config.pareto_epsilon = 0.125;
  config.objective = dse::Objective::kMinTime;

  util::Json doc = util::Json::object();
  doc.set("protocol_version", 2)
      .set("id", "a")
      .set("op", "dse_shard")
      .set("config", api::encode_dse_config(config))
      .set("begin", 0)
      .set("end", 1)
      .set("mode", "estimate");
  const api::Request request = api::decode_v2_request(doc);
  const dse::ExplorerConfig& got =
      std::get<api::DseShardRequest>(request).config;
  EXPECT_EQ(got.max_units_per_row, config.max_units_per_row);
  EXPECT_EQ(got.max_units_per_col, config.max_units_per_col);
  EXPECT_EQ(got.max_stages, config.max_stages);
  EXPECT_EQ(got.max_area_ratio, config.max_area_ratio);
  EXPECT_EQ(got.max_time_ratio, config.max_time_ratio);
  EXPECT_EQ(got.pareto_epsilon, config.pareto_epsilon);
  EXPECT_EQ(got.objective, config.objective);
}

TEST(DistProtocol, ShardAndWorkerInfoBodies) {
  api::DseShardResponse estimate;
  estimate.begin = 2;
  estimate.end = 4;
  estimate.base_cycles = 100;
  estimate.estimated_cycles = {7, 9};
  const util::Json est_body = api::to_body(estimate);
  EXPECT_TRUE(est_body.at("ok").as_bool());
  EXPECT_EQ(est_body.at("op").as_string(), "dse_shard");
  EXPECT_EQ(est_body.at("mode").as_string(), "estimate");
  EXPECT_EQ(est_body.at("begin").as_number(), 2);
  EXPECT_EQ(est_body.at("end").as_number(), 4);
  EXPECT_EQ(est_body.at("base_cycles").as_number(), 100);
  ASSERT_EQ(est_body.at("estimated_cycles").size(), 2u);
  EXPECT_EQ(est_body.at("estimated_cycles").at(1).as_number(), 9);
  EXPECT_FALSE(est_body.contains("cycles"));

  api::DseShardResponse exact;
  exact.exact = true;
  exact.begin = 5;
  exact.end = 6;
  exact.cycles = {{30, 40}};
  exact.stalls = {{1, 2}};
  const util::Json exact_body = api::to_body(exact);
  EXPECT_EQ(exact_body.at("mode").as_string(), "exact");
  ASSERT_EQ(exact_body.at("cycles").size(), 1u);
  EXPECT_EQ(exact_body.at("cycles").at(0).at(1).as_number(), 40);
  EXPECT_EQ(exact_body.at("stalls").at(0).at(0).as_number(), 1);
  EXPECT_FALSE(exact_body.contains("base_cycles"));

  api::WorkerInfoResponse info;
  info.threads = 2;
  info.max_inflight = 4;
  info.kernels = 9;
  info.architectures = 5;
  info.pid = 1234;
  info.uptime_ms = 5678;
  const util::Json info_body = api::to_body(info);
  EXPECT_EQ(info_body.at("op").as_string(), "worker_info");
  EXPECT_EQ(info_body.at("threads").as_number(), 2);
  EXPECT_EQ(info_body.at("max_inflight").as_number(), 4);
  EXPECT_EQ(info_body.at("kernels").as_number(), 9);
  EXPECT_EQ(info_body.at("architectures").as_number(), 5);
  EXPECT_EQ(info_body.at("pid").as_number(), 1234);
  EXPECT_EQ(info_body.at("uptime_ms").as_number(), 5678);
}

TEST(DistProtocol, ServiceShardMatchesServiceDseAndChecksBounds) {
  const api::Service service(small_options());
  api::DseRequest dse_request;
  dse_request.kernels = {"SAD", "MVM"};
  dse_request.config = small_dse_config();
  const api::DseResponse expect = service.dse(dse_request);
  const long n = static_cast<long>(expect.result.candidates.size());

  api::DseShardRequest shard;
  shard.kernels = dse_request.kernels;
  shard.config = dse_request.config;
  shard.begin = 0;
  shard.end = n;
  const api::DseShardResponse got = service.dse_shard(shard);
  EXPECT_EQ(got.base_cycles, expect.result.base_cycles);
  ASSERT_EQ(got.estimated_cycles.size(), static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(got.estimated_cycles[i],
              expect.result.candidates[i].estimated_cycles);

  // Out-of-grid bounds surface as an in-band error body, not a dead
  // connection.
  shard.end = n + 1;
  const util::Json body = service.handle(shard);
  EXPECT_FALSE(body.at("ok").as_bool());
  EXPECT_NE(body.at("error").as_string().find("exceeds the enumeration grid"),
            std::string::npos);

  const api::WorkerInfoResponse info = service.worker_info({});
  EXPECT_EQ(info.threads, 2);
  EXPECT_EQ(info.max_inflight, 2);
  EXPECT_GT(info.kernels, 0u);
  EXPECT_GT(info.architectures, 0u);
  EXPECT_GT(info.pid, 0);
  // Uptime counts from Service construction; a fresh service is young but
  // never negative, and a second probe can only be older.
  EXPECT_GE(info.uptime_ms, 0);
  EXPECT_GE(service.worker_info({}).uptime_ms, info.uptime_ms);
}

// ----------------------------------------------------------- connect retry

TEST(DistConnect, ValidatesOptions) {
  const api::ListenAddress address = api::parse_listen_address(":1");
  EXPECT_THROW(api::connect_socket(address, {0, 25}), InvalidArgumentError);
  EXPECT_THROW(api::connect_socket(address, {1, -1}), InvalidArgumentError);
}

TEST(DistConnect, ExhaustedRetriesReportTheUnderlyingError) {
  const api::ListenAddress address =
      api::parse_listen_address(::testing::TempDir() + "rsp_dist_absent.sock");
  try {
    api::connect_socket(address, {3, 1});
    FAIL() << "expected the connect to fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot connect"), std::string::npos);
  }
}

TEST(DistConnect, RetriesUntilTheServerBinds) {
  const std::string path = ::testing::TempDir() + "rsp_dist_late.sock";
  std::remove(path.c_str());
  const api::ListenAddress address = api::parse_listen_address(path);
  api::Service service(small_options(1, 1));
  std::unique_ptr<api::SocketServer> server;
  std::thread binder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server = std::make_unique<api::SocketServer>(
        service, std::vector<api::ListenAddress>{address});
  });
  // The first attempts race the binder thread and see ENOENT — a
  // transient error the bounded retry must absorb.
  const int fd = api::connect_socket(address, {100, 10});
  EXPECT_GE(fd, 0);
  ::close(fd);
  binder.join();
  server.reset();
  std::remove(path.c_str());
}

// ------------------------------------------------------------- coordinator

// A scripted worker speaking just enough of the v2 protocol to pass the
// worker_info handshake, then failing every dse_shard the configured way —
// the deterministic stand-in for a worker that dies or misbehaves mid-run.
class FakeWorker {
 public:
  enum class Behaviour {
    kDieOnShard,    ///< close the connection on the first dse_shard
    kRejectShard,   ///< answer dse_shard with an in-band {"ok": false}
  };

  explicit FakeWorker(Behaviour behaviour) : behaviour_(behaviour) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_TRUE_OR_THROW(listen_fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_TRUE_OR_THROW(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) == 0);
    ASSERT_TRUE_OR_THROW(::listen(listen_fd_, 4) == 0);
    socklen_t len = sizeof(addr);
    ASSERT_TRUE_OR_THROW(::getsockname(
        listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { accept_loop(); });
  }

  ~FakeWorker() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  api::ListenAddress address() const {
    return api::parse_listen_address("127.0.0.1:" + std::to_string(port_));
  }

 private:
  static void ASSERT_TRUE_OR_THROW(bool ok) {
    if (!ok) throw Error("fake worker setup failed");
  }

  void accept_loop() {
    for (;;) {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) return;  // listener shut down
      serve_connection(conn);
      ::close(conn);
    }
  }

  void serve_connection(int conn) {
    api::SocketStreamBuf buf(conn);
    std::istream in(&buf);
    std::ostream out(&buf);
    std::string line;
    while (std::getline(in, line)) {
      util::Json request;
      try {
        request = util::Json::parse(line);
      } catch (const std::exception&) {
        return;
      }
      const std::string op = request.at("op").as_string();
      util::Json reply = util::Json::object();
      reply.set("protocol_version", 2);
      reply.set("id", request.at("id").as_string());
      if (op == "worker_info") {
        reply.set("op", "worker_info").set("ok", true);
      } else if (behaviour_ == Behaviour::kDieOnShard) {
        return;  // vanish mid-request: transport failure at the peer
      } else {
        reply.set("ok", false).set("error", "synthetic shard refusal");
      }
      out << reply.dump() << "\n" << std::flush;
    }
  }

  Behaviour behaviour_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

CoordinatorOptions fast_coordinator_options() {
  CoordinatorOptions options;
  options.shard_points = 2;  // many shards: exercises the pull queue
  options.redispatch.backoff_ms = 0;
  options.connect.attempts = 40;
  options.connect.backoff_ms = 10;
  options.probe = {2, 1};  // probe fast so re-admission never stalls tests
  return options;
}

api::DseRequest small_dse_request() {
  api::DseRequest request;
  request.kernels = {"SAD", "MVM"};
  request.config = small_dse_config();
  return request;
}

TEST(DistCoordinator, BitIdenticalToServiceDseColdAndWarm) {
  const api::DseRequest request = small_dse_request();
  const api::Service reference(small_options());
  const api::DseResponse expect = reference.dse(request);

  // Two independent worker services behind real sockets.
  api::Service worker_a(small_options());
  api::Service worker_b(small_options());
  api::SocketServer server_a(worker_a, {api::parse_listen_address(":0")});
  api::SocketServer server_b(worker_b, {api::parse_listen_address(":0")});
  ServerRunner runner_a(server_a);
  ServerRunner runner_b(server_b);

  DseCoordinator coordinator(
      {server_a.addresses()[0], server_b.addresses()[0]},
      fast_coordinator_options());
  // Cold worker caches, then warm: a cache can skip work, never change it.
  expect_identical(coordinator.dse(request), expect);
  expect_identical(coordinator.dse(request), expect);

  const util::Json stats = coordinator.stats_json();
  EXPECT_EQ(stats.at("runs").as_number(), 2);
  EXPECT_EQ(stats.at("redispatched").as_number(), 0);
  EXPECT_EQ(stats.at("workers_lost").as_number(), 0);
  ASSERT_EQ(stats.at("workers").size(), 2u);
  long shards = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const util::Json& entry = stats.at("workers").at(i);
    EXPECT_TRUE(entry.at("alive").as_bool());
    EXPECT_GE(entry.at("busy_ms").as_number(), 0);
    shards += static_cast<long>(entry.at("shards").as_number());
  }
  EXPECT_EQ(shards, static_cast<long>(stats.at("shards").as_number()));
  EXPECT_GT(shards, 0);
}

TEST(DistCoordinator, RedispatchesWhenAWorkerDiesMidRun) {
  const api::DseRequest request = small_dse_request();
  const api::Service reference(small_options());
  const api::DseResponse expect = reference.dse(request);

  // Worker 0 passes the handshake, then drops the connection on its first
  // shard; the survivor must absorb the re-dispatched work with the merged
  // result unchanged.
  FakeWorker dying(FakeWorker::Behaviour::kDieOnShard);
  api::Service worker_service(small_options());
  api::SocketServer server(worker_service, {api::parse_listen_address(":0")});
  ServerRunner runner(server);

  // The first death is final. With re-admission on, the prober could bring
  // the worker back and leave it alive when the run ends, and workers_lost
  // only counts workers still quarantined then. Re-admission is covered by
  // ReadmitsAWorkerAfterAScriptedDrop.
  CoordinatorOptions options = fast_coordinator_options();
  options.circuit_breaker_failures = 1;
  DseCoordinator coordinator({dying.address(), server.addresses()[0]},
                             options);
  expect_identical(coordinator.dse(request), expect);

  const util::Json stats = coordinator.stats_json();
  EXPECT_GE(stats.at("redispatched").as_number(), 1);
  EXPECT_EQ(stats.at("workers_lost").as_number(), 1);
  EXPECT_FALSE(stats.at("workers").at(0).at("alive").as_bool());
  EXPECT_TRUE(stats.at("workers").at(1).at("alive").as_bool());
  EXPECT_EQ(stats.at("workers").at(0).at("shards").as_number(), 0);
  EXPECT_GE(stats.at("workers").at(0).at("retries").as_number(), 1);
}

TEST(DistCoordinator, LosingEveryWorkerAbortsTheRunWhenFallbackIsOff) {
  // The worker accepts every connection and handshake but dies on every
  // shard: quarantine, re-admission, another death — until the circuit
  // breaker stops the probing. With the local fallback opted out, and a
  // redispatch budget too large to exhaust first, the run must abort with
  // the all-workers-lost error.
  FakeWorker dying(FakeWorker::Behaviour::kDieOnShard);
  CoordinatorOptions options = fast_coordinator_options();
  options.local_fallback = false;
  options.redispatch.attempts = 10;
  DseCoordinator coordinator({dying.address()}, options);
  try {
    coordinator.dse(small_dse_request());
    FAIL() << "expected the run to abort";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("all workers lost"),
              std::string::npos);
  }
  const util::Json stats = coordinator.stats_json();
  EXPECT_EQ(stats.at("workers_lost").as_number(), 1);
  EXPECT_EQ(stats.at("local_fallback_shards").as_number(), 0);
  EXPECT_GE(stats.at("workers").at(0).at("quarantined").as_number(), 1);
}

TEST(DistCoordinator, LocalFallbackFinishesTheRunWhenTheFleetDies) {
  const api::DseRequest request = small_dse_request();
  const api::Service reference(small_options());
  const api::DseResponse expect = reference.dse(request);

  // One worker, dead on its first shard, breaker tripped immediately: the
  // coordinator must compute every remaining shard in-process — through
  // the same dse_shard code the worker would run, so the merged result is
  // still bit-identical.
  FakeWorker dying(FakeWorker::Behaviour::kDieOnShard);
  CoordinatorOptions options = fast_coordinator_options();
  options.circuit_breaker_failures = 1;  // no re-admission attempts
  DseCoordinator coordinator({dying.address()}, options);
  expect_identical(coordinator.dse(request), expect);

  const util::Json stats = coordinator.stats_json();
  EXPECT_GT(stats.at("local_fallback_shards").as_number(), 0);
  EXPECT_EQ(stats.at("workers_lost").as_number(), 1);
  const util::Json& worker = stats.at("workers").at(0);
  EXPECT_GE(worker.at("quarantined").as_number(), 1);
  EXPECT_EQ(worker.at("readmitted").as_number(), 0);
  EXPECT_EQ(worker.at("shards").as_number(), 0);
  EXPECT_FALSE(worker.at("alive").as_bool());
}

TEST(DistCoordinator, ReadmitsAWorkerAfterAScriptedDrop) {
  const api::DseRequest request = small_dse_request();
  const api::Service reference(small_options());
  const api::DseResponse expect = reference.dse(request);

  // The worker's serve loop drops its connection on the 2nd request it
  // ever sees (ordinal 1 is the handshake, ordinal 2 the first shard) and
  // behaves from then on: the health prober's next handshake (ordinal 3)
  // succeeds, the worker is re-admitted mid-run, and the sole-worker fleet
  // still finishes remotely — no local fallback involved.
  api::Service worker_service(small_options());
  api::SocketServerOptions server_options;
  server_options.serve.fault = std::make_shared<util::FaultInjector>(
      util::FaultPlan::parse("at=2:drop"));
  api::SocketServer server(worker_service, {api::parse_listen_address(":0")},
                           server_options);
  ServerRunner runner(server);

  DseCoordinator coordinator({server.addresses()[0]},
                             fast_coordinator_options());
  expect_identical(coordinator.dse(request), expect);

  const util::Json stats = coordinator.stats_json();
  const util::Json& worker = stats.at("workers").at(0);
  EXPECT_GE(worker.at("quarantined").as_number(), 1);
  EXPECT_GE(worker.at("readmitted").as_number(), 1);
  EXPECT_GE(worker.at("probes").as_number(), 1);
  EXPECT_TRUE(worker.at("alive").as_bool());
  EXPECT_GT(worker.at("shards").as_number(), 0);
  EXPECT_GE(stats.at("redispatched").as_number(), 1);
  EXPECT_EQ(stats.at("workers_lost").as_number(), 0);
  EXPECT_EQ(stats.at("local_fallback_shards").as_number(), 0);
}

TEST(DistCoordinator, QuarantinesAnUnreachableWorkerAtRunStart) {
  const api::DseRequest request = small_dse_request();
  const api::Service reference(small_options());
  const api::DseResponse expect = reference.dse(request);

  // Nothing listens on the first address: the coordinator must quarantine
  // it (one connect attempt, no 40-try stall) and run the whole grid on
  // the reachable worker.
  api::Service worker_service(small_options());
  api::SocketServer server(worker_service, {api::parse_listen_address(":0")});
  ServerRunner runner(server);
  const api::ListenAddress absent = api::parse_listen_address(
      ::testing::TempDir() + "rsp_dist_never.sock");

  CoordinatorOptions options = fast_coordinator_options();
  options.connect = {1, 0};           // absent means absent, immediately
  options.circuit_breaker_failures = 1;  // don't re-probe it mid-run
  DseCoordinator coordinator({absent, server.addresses()[0]}, options);
  expect_identical(coordinator.dse(request), expect);

  const util::Json stats = coordinator.stats_json();
  EXPECT_EQ(stats.at("workers_lost").as_number(), 1);
  EXPECT_GE(stats.at("workers").at(0).at("quarantined").as_number(), 1);
  EXPECT_FALSE(stats.at("workers").at(0).at("alive").as_bool());
  EXPECT_TRUE(stats.at("workers").at(1).at("alive").as_bool());
  EXPECT_EQ(stats.at("local_fallback_shards").as_number(), 0);
}

TEST(DistCoordinator, InBandRejectionIsFatalNotRetried) {
  // A shard rejection is deterministic — every worker would reject it
  // identically, so retrying would loop forever.
  FakeWorker refusing(FakeWorker::Behaviour::kRejectShard);
  DseCoordinator coordinator({refusing.address()},
                             fast_coordinator_options());
  try {
    coordinator.dse(small_dse_request());
    FAIL() << "expected the run to abort";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rejected shard"), std::string::npos) << what;
    EXPECT_NE(what.find("synthetic shard refusal"), std::string::npos)
        << what;
  }
  EXPECT_EQ(coordinator.stats_json().at("redispatched").as_number(), 0);
}

TEST(DistCoordinator, ValidatesConstructionOptions) {
  const std::vector<api::ListenAddress> one = {
      api::parse_listen_address(":1")};
  EXPECT_THROW(DseCoordinator({}), InvalidArgumentError);
  CoordinatorOptions bad;
  bad.shard_points = 0;
  EXPECT_THROW(DseCoordinator(one, bad), InvalidArgumentError);
  bad = CoordinatorOptions{};
  bad.redispatch.attempts = 0;
  EXPECT_THROW(DseCoordinator(one, bad), InvalidArgumentError);
  bad = CoordinatorOptions{};
  bad.request_timeout_ms = -1;
  EXPECT_THROW(DseCoordinator(one, bad), InvalidArgumentError);
  bad = CoordinatorOptions{};
  bad.probe.backoff_ms = -1;
  EXPECT_THROW(DseCoordinator(one, bad), InvalidArgumentError);
  bad = CoordinatorOptions{};
  bad.connect.attempts = 0;
  EXPECT_THROW(DseCoordinator(one, bad), InvalidArgumentError);
  bad = CoordinatorOptions{};
  bad.circuit_breaker_failures = 0;
  EXPECT_THROW(DseCoordinator(one, bad), InvalidArgumentError);
}

}  // namespace
}  // namespace rsp::dist
