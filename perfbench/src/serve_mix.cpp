// serve_mix: closed loop, four connections. Each client thread keeps one
// request in flight over a unix socket to an in-process api::SocketServer
// sharing one Service{threads=2, max_inflight=4}. The seeded v2 mix is
// mostly warm memo-table hits plus 5% evals of never-seen gen: kernels.
//
// The traced run first drives the socket untraced (round-trip times and
// cache_stats deltas), then replays request lines serially through
// util::Json::parse + decode_v2_request, Service::handle, and
// encode_v2_response + dump on the same warm Service.
#include <unistd.h>

#include <atomic>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "api/protocol.hpp"
#include "api/service.hpp"
#include "api/socket_server.hpp"
#include "checks.hpp"
#include "env.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using rsp::util::Json;

constexpr int kConnections = 4;
constexpr int kSetupRepetitions = 5;
/// Memo-table bound of the long-lived server (`serve --cache-entries`):
/// the fresh gen: kernels churn through it instead of growing it forever.
constexpr std::size_t kCacheEntries = 2048;
/// Request ids (and stream indices) of the phases, far apart so the
/// gen: kernels of one phase are never seen by another.
constexpr std::int64_t kWarmupIds = 1'000'000'000;
constexpr std::uint64_t kReplayIndex = 1'000'000'000'000;

rsp::api::ServiceOptions serve_options() {
  rsp::api::ServiceOptions options;
  options.threads = 2;
  options.max_inflight = 4;
  options.cache_max_entries = kCacheEntries;
  return options;
}

/// One Service behind a listening SocketServer, served on its own thread
/// until destruction.
class Server {
 public:
  explicit Server(const rsp::api::ListenAddress& address)
      : service_(serve_options()),
        server_(service_, {address}),
        thread_([this] { server_.run(); }) {}
  ~Server() {
    server_.shutdown();
    thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const rsp::api::Service& service() const { return service_; }

 private:
  rsp::api::Service service_;
  rsp::api::SocketServer server_;
  std::thread thread_;
};

/// A blocking line-oriented client connection.
class Client {
 public:
  explicit Client(const rsp::api::ListenAddress& address)
      : fd_(rsp::api::connect_socket(address)), buf_(fd_), io_(&buf_) {}
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string call(const std::string& line) {
    io_ << line << '\n' << std::flush;
    std::string response;
    if (!std::getline(io_, response))
      throw rsp::Error("perfbench: server closed the connection");
    return response;
  }

 private:
  int fd_;
  rsp::api::SocketStreamBuf buf_;
  std::iostream io_;
};

/// One request a client thread sends: the line, its id, and the body the
/// serial reference returned (null for a fresh gen: eval).
struct Item {
  std::string line;
  std::int64_t id = 0;
  const std::string* expected = nullptr;
};

struct Driven {
  std::vector<OpRecord> ops;  ///< times relative to the start of drive()
  std::int64_t attempted = 0;
  std::vector<std::string> failures;  ///< every failed check
};

/// Runs kConnections closed-loop clients; each takes item `next(i)` for the
/// next shared index i until `next` returns nothing.
Driven drive(const rsp::api::ListenAddress& address,
             const std::function<std::optional<Item>(std::int64_t)>& next) {
  Driven all;
  std::mutex mu;
  std::atomic<std::int64_t> counter{0};
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      Driven mine;
      try {
        Client client(address);
        for (;;) {
          const std::optional<Item> item = next(counter.fetch_add(1));
          if (!item) break;
          const auto start = Clock::now();
          const std::string response = client.call(item->line);
          mine.ops.push_back({seconds_since(start) * 1e3, seconds_since(t0),
                              cpu_seconds() - cpu0});
          ++mine.attempted;
          std::string diff =
              serve_response_diff(response, item->id, item->expected);
          if (!diff.empty()) mine.failures.push_back(std::move(diff));
        }
      } catch (const std::exception& e) {
        ++mine.attempted;
        mine.failures.push_back(std::string("client: ") + e.what());
      }
      const std::lock_guard<std::mutex> lock(mu);
      all.ops.insert(all.ops.end(), mine.ops.begin(), mine.ops.end());
      all.attempted += mine.attempted;
      for (std::string& f : mine.failures) all.failures.push_back(std::move(f));
    });
  }
  for (std::thread& t : threads) t.join();
  return all;
}

const char* handle_span(ServeClass cls) {
  switch (cls) {
    case ServeClass::kEval: return "api.handle.eval";
    case ServeClass::kSimulate: return "api.handle.simulate";
    case ServeClass::kMap: return "api.handle.map";
    case ServeClass::kSimulateBatch: return "api.handle.simulate_batch";
    case ServeClass::kLint: return "api.handle.lint";
    case ServeClass::kDse: return "api.handle.dse";
    case ServeClass::kEvalGen: return "api.handle.eval_gen";
  }
  return "api.handle";
}

/// One request line through the serve path's public calls, serially.
std::string replay(const rsp::api::Service& service, const std::string& line,
                   ServeClass cls, Tracer* tracer, std::int64_t request) {
  const Span op(tracer, "serve.request", request);
  Json doc;
  rsp::api::Request decoded;
  {
    const Span s(tracer, "api.decode");
    doc = Json::parse(line);
    decoded = rsp::api::decode_v2_request(doc);
  }
  Json body;
  {
    const Span s(tracer, handle_span(cls));
    body = service.handle(decoded);
  }
  const Span s(tracer, "api.encode");
  return rsp::api::encode_v2_response(doc.at("id"), std::move(body)).dump();
}

}  // namespace

Outcome run_serve_mix(const RunOptions& options) {
  Outcome out;
  const auto absorb = [&out](Driven d) {
    out.attempted += d.attempted;
    for (std::string& f : d.failures) out.fail(std::move(f));
    return std::move(d.ops);
  };

  // Reference bodies: a serial Service answers every catalogue request.
  const std::vector<ServeRequest> catalogue = serve_catalogue(options.seed);
  std::vector<std::string> expected;
  {
    rsp::api::ServiceOptions serial;
    serial.threads = 1;
    serial.max_inflight = 1;
    const rsp::api::Service reference(serial);
    for (const ServeRequest& r : catalogue)
      expected.push_back(
          reference
              .handle(rsp::api::decode_v2_request(
                  Json::parse(request_line(r, 0))))
              .dump());
  }
  if (options.corrupt_reference) expected.front().insert(1, " ");
  const auto item_for = [&](const ServeRequest& r, std::int64_t id) {
    return Item{request_line(r, id), id,
                r.catalogue_index >= 0
                    ? &expected[static_cast<std::size_t>(r.catalogue_index)]
                    : nullptr};
  };

  const rsp::api::ListenAddress address = rsp::api::parse_listen_address(
      options.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock");

  // Set-up: Service + server construction and the warm-up pass (every
  // catalogue request answered once), repeated; the last server stays.
  std::unique_ptr<Server> server;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepetitions); ++r) {
    server.reset();
    record_setup(out, [&] {
      server = std::make_unique<Server>(address);
      absorb(drive(address, [&](std::int64_t i) -> std::optional<Item> {
        if (i >= static_cast<std::int64_t>(catalogue.size())) return {};
        return item_for(catalogue[static_cast<std::size_t>(i)],
                        kWarmupIds + i);
      }));
    });
  }

  const auto timed = [&](double seconds) {
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds);
    return drive(address, [&](std::int64_t i) -> std::optional<Item> {
      if (Clock::now() >= deadline) return {};
      return item_for(
          serve_request(options.seed, static_cast<std::uint64_t>(i), catalogue),
          i);
    });
  };

  if (!options.trace) {
    out.ops = absorb(timed(options.seconds));
    return out;
  }

  // Traced run, phase 1 (half the time): untraced socket load for the round
  // trips and the memo tables' hits and fills.
  const rsp::api::Service& service = server->service();
  const rsp::api::CacheStatsResponse before = service.cache_stats({});
  std::vector<double> round_trip_ms;
  for (const OpRecord& op : absorb(timed(options.seconds / 2)))
    round_trip_ms.push_back(op.latency_ms);
  const rsp::api::CacheStatsResponse after = service.cache_stats({});

  // Phase 2: serial replay. Catalogue requests run untraced then traced
  // (both warm); a fresh gen: eval runs once, traced, so it stays a miss.
  Tracer& tracer = out.tracer;
  double untraced_s = 0.0, paired_traced_s = 0.0;
  std::vector<double> response_bytes;
  const auto t0 = Clock::now();
  for (std::uint64_t i = kReplayIndex;
       seconds_since(t0) < options.seconds / 2; ++i) {
    const ServeRequest r = serve_request(options.seed, i, catalogue);
    const Item item = item_for(r, static_cast<std::int64_t>(i));
    for (Tracer* t : {static_cast<Tracer*>(nullptr), &tracer}) {
      if (t == nullptr && item.expected == nullptr) continue;
      const auto start = Clock::now();
      std::string response;
      try {
        response = replay(service, item.line, r.cls, t, item.id);
      } catch (const std::exception& e) {
        response = e.what();
      }
      const double elapsed = seconds_since(start);
      ++out.attempted;
      const std::string diff =
          serve_response_diff(response, item.id, item.expected);
      if (!diff.empty()) out.fail("replay: " + diff);
      if (t == nullptr) {
        untraced_s += elapsed;
      } else {
        response_bytes.push_back(static_cast<double>(response.size()));
        if (item.expected != nullptr) paired_traced_s += elapsed;
      }
    }
  }

  const LayerTable table = aggregate(tracer.spans());
  out.table = render_table(table);
  const auto layer = [&](const std::string& name, double value) {
    out.layer.emplace_back(name, value);
  };
  layer("api.decode_ms", table.self_ms_median({"api.decode"}));
  layer("api.encode_ms", table.self_ms_median({"api.encode"}));
  layer("api.response_bytes", median(response_bytes));
  for (int c = 0; c < kServeClasses; ++c) {
    const auto cls = static_cast<ServeClass>(c);
    layer(std::string(handle_span(cls)) + "_ms",
          table.self_ms_median_called(handle_span(cls)));
  }
  // Socket round trip not explained by the traced serve path: transport,
  // dispatch and queueing behind the other connections.
  std::vector<double> served_ms(table.ops);
  for (std::size_t op = 0; op < table.ops; ++op)
    served_ms[op] = table.op_ms[op] - table.residual_ms[op];
  layer("api.transport_queue_ms", mean(round_trip_ms) - mean(served_ms));
  const auto before_tables = cache_tables(before);
  const auto after_tables = cache_tables(after);
  for (std::size_t k = 0; k < before_tables.size(); ++k) {
    const CacheDelta d =
        cache_delta(*before_tables[k].second, *after_tables[k].second);
    const std::string key = "runtime." + before_tables[k].first + "_cache.";
    layer(key + "hit_ratio", d.hit_ratio);
    layer(key + "entries", static_cast<double>(d.entries));
  }
  layer("residual_ms", median(table.residual_ms));
  layer("trace.op_ms", median(table.op_ms));
  layer("trace.overhead_ratio",
        untraced_s > 0 ? paired_traced_s / untraced_s : 0.0);
  return out;
}

}  // namespace perfbench
