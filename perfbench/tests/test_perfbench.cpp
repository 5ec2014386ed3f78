// Tests of the benchmark's own arithmetic and checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "api/protocol.hpp"
#include "api/service.hpp"
#include "checks.hpp"
#include "dse/explorer.hpp"
#include "gen/fuzz.hpp"
#include "kernels/registry.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rsp::util::Json;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, PicksTheHighestRungWithTenSamplesBeyond) {
  const TailPercentile t100 = tail_percentile(one_to(100));
  EXPECT_EQ(t100.percentile, 90.0);
  EXPECT_EQ(t100.value, 90.0);
  EXPECT_EQ(t100.beyond, 10);
  EXPECT_EQ(t100.samples, 100);

  const TailPercentile t1000 = tail_percentile(one_to(1000));
  EXPECT_EQ(t1000.percentile, 99.0);
  EXPECT_EQ(t1000.value, 990.0);
  EXPECT_EQ(t1000.beyond, 10);

  // 99.9 needs 10 000 samples: rank 9990 leaves exactly 10 beyond.
  const TailPercentile t10k = tail_percentile(one_to(10000));
  EXPECT_EQ(t10k.percentile, 99.9);
  EXPECT_EQ(t10k.beyond, 10);

  // Between rungs the lower one holds: 5000 samples leave 5 beyond p99.9.
  const TailPercentile t5k = tail_percentile(one_to(5000));
  EXPECT_EQ(t5k.percentile, 99.0);
  EXPECT_EQ(t5k.beyond, 50);

  // 199 samples: p95 is rank 190 (9 beyond), so p90 (rank 180, 19 beyond).
  const TailPercentile t199 = tail_percentile(one_to(199));
  EXPECT_EQ(t199.percentile, 90.0);
  EXPECT_EQ(t199.beyond, 19);
}

TEST(TailPercentile, FallsBackToTheMedianWithItsCountWhenTooFewSamples) {
  const TailPercentile t = tail_percentile(one_to(10));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 5.0);
  EXPECT_EQ(t.beyond, 5);
  EXPECT_EQ(tail_percentile({}).samples, 0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

SpanRecord span(const char* name, std::int64_t start, std::int64_t end,
                int parent, std::int64_t request = 0) {
  SpanRecord s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.request = request;
  return s;
}

TEST(SpanSelfTime, SubtractsTheUnionOfNestedAndOverlappingChildren) {
  const std::vector<SpanRecord> spans = {
      span("op", 0, 100, -1),
      span("a", 10, 40, 0),
      span("b", 30, 60, 0),    // overlaps a: [30, 40) is counted once
      span("a.x", 15, 20, 1),  // nested two deep
      span("c", 90, 120, 0),   // runs past its parent: clipped to [90, 100)
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
}

TEST(SpanSelfTime, LayersPlusResidualAddUpToTheOperation) {
  const std::vector<SpanRecord> spans = {
      span("op", 0, 1'000'000, -1, 0),
      span("map", 100'000, 400'000, 0, 0),
      span("schedule", 150'000, 250'000, 1, 0),
      span("op", 2'000'000, 2'500'000, -1, 1),
      span("map", 2'000'000, 2'100'000, 3, 1),
  };
  const LayerTable table = aggregate(spans);
  ASSERT_EQ(table.ops, 2u);
  for (std::size_t op = 0; op < table.ops; ++op) {
    double sum = table.residual_ms[op];
    for (const auto& [name, ms] : table.self_ms) sum += ms[op];
    EXPECT_DOUBLE_EQ(sum, table.op_ms[op]);
  }
  EXPECT_DOUBLE_EQ(table.self_ms.at("map")[0], 0.2);
  EXPECT_DOUBLE_EQ(table.self_ms.at("schedule")[1], 0.0);
  EXPECT_DOUBLE_EQ(table.calls_median("map"), 1.0);
  EXPECT_DOUBLE_EQ(table.self_ms_median_called("schedule"), 0.1);

  const LayerTable second =
      aggregate(spans_of(spans, [](std::int64_t r) { return r == 1; }));
  ASSERT_EQ(second.ops, 1u);
  EXPECT_DOUBLE_EQ(second.op_ms[0], 0.5);
  EXPECT_DOUBLE_EQ(second.residual_ms[0], 0.4);
}

TEST(Tracer, RecordsNestedSpansAndWritesChromeTraceJson) {
  Tracer tracer;
  {
    const Span op(&tracer, "op", 7);
    const Span inner(&tracer, "layer");
    tracer.attribute("attributed", inner.index(), tracer.now_ns(), 10);
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request, 7);
  EXPECT_TRUE(tracer.spans()[2].attributed);

  std::ostringstream trace;
  tracer.write_chrome_trace(trace);
  const Json doc = Json::parse(trace.str());
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.at(1).at("ph").as_string(), "X");
  EXPECT_EQ(events.at(1).at("args").at("parent").as_number(), 0);

  const Span untraced(nullptr, "op");
  EXPECT_EQ(untraced.index(), -1);
}

TEST(Streams, SameSeedGivesByteIdenticalRequestStreams) {
  const auto stream = [](std::uint64_t seed) {
    const std::vector<ServeRequest> catalogue = serve_catalogue(seed);
    std::string all;
    for (std::uint64_t i = 0; i < 500; ++i)
      all += request_line(serve_request(seed, i, catalogue),
                          static_cast<std::int64_t>(i)) + "\n";
    return all;
  };
  EXPECT_EQ(stream(7), stream(7));
  EXPECT_NE(stream(7), stream(8));
  EXPECT_EQ(dse_domain_pool(7), dse_domain_pool(7));
  EXPECT_NE(dse_domain_pool(7), dse_domain_pool(8));
  EXPECT_EQ(fuzz_base(7), fuzz_base(7));
  EXPECT_NE(fuzz_base(7), fuzz_base(8));
}

TEST(Streams, PoolsAndMixHaveTheDocumentedShape) {
  const std::vector<std::vector<std::string>> pool = dse_domain_pool(3);
  ASSERT_EQ(pool.size(), 8u * 13);
  std::map<std::pair<std::size_t, std::string>, int> appearances;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (i % 8 == 0) {
      EXPECT_EQ(pool[i].size(), rsp::kernels::paper_suite().size());
      EXPECT_EQ(pool[i], pool.front());
      continue;
    }
    EXPECT_EQ(pool[i].size(), 2 + i % 8);
    EXPECT_EQ(std::set<std::string>(pool[i].begin(), pool[i].end()).size(),
              pool[i].size());
    for (const std::string& k : pool[i]) ++appearances[{pool[i].size(), k}];
  }
  for (const auto& [size_kernel, count] : appearances)
    EXPECT_EQ(static_cast<std::size_t>(count), size_kernel.first);
  EXPECT_EQ(array8x8_kernels().size(), 13u);

  const std::vector<ServeRequest> catalogue = serve_catalogue(3);
  int counts[kServeClasses] = {};
  std::set<std::string> gen_kernels;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const ServeRequest r = serve_request(3, i, catalogue);
    ++counts[static_cast<int>(r.cls)];
    if (r.cls == ServeClass::kEvalGen)
      gen_kernels.insert(r.payload.at("kernel").as_string());
  }
  const int expected[kServeClasses] = {30, 20, 15, 15, 10, 5, 5};
  for (int c = 0; c < kServeClasses; ++c)
    EXPECT_NEAR(counts[c] / 100.0, expected[c], 1.5) << c;
  EXPECT_EQ(gen_kernels.size(), static_cast<std::size_t>(counts[6]));
}

TEST(PhaseClock, SetUpsAreSpreadEvenlyAndLeftOutOfTheTimeline) {
  EXPECT_EQ(setups_due(9, 0.0, 18.0), 1);
  EXPECT_EQ(setups_due(9, 1.9, 18.0), 1);
  EXPECT_EQ(setups_due(9, 2.0, 18.0), 2);
  EXPECT_EQ(setups_due(9, 16.0, 18.0), 9);  // the last one inside the phase
  EXPECT_EQ(setups_due(9, 18.0, 18.0), 9);

  PhaseClock clock;
  clock.exclude([] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
    while (std::chrono::steady_clock::now() < until) {
    }
  });
  EXPECT_LT(clock.wall_s(), 0.02);
  EXPECT_LT(clock.cpu_s(), 0.02);
}

TEST(ChunkRates, MedianThroughputAndLeastCpuPerOperation) {
  // Four chunks of two operations; the third chunk was disturbed.
  std::vector<OpRecord> ops;
  const double cpu_per_op[] = {1.0, 1.0, 1.2, 1.2, 3.0, 3.0, 1.1, 1.1};
  double done = 0.0, cpu = 0.0;
  for (const double c : cpu_per_op) {
    done += c / 1e3;  // wall tracks CPU: one busy thread
    cpu += c / 1e3;
    ops.push_back({c, done, cpu});
  }
  std::reverse(ops.begin(), ops.end());  // completion order is restored
  const ChunkRates rates = chunk_rates(ops, 4);
  EXPECT_NEAR(rates.cpu_ms_per_op, 1.0, 1e-9);
  // Chunk throughputs 1000, 833, 333 and 909 ops/s: median of the middle two.
  EXPECT_NEAR(rates.throughput_ops_per_s, (1000.0 / 1.2 + 1000.0 / 1.1) / 2,
              1e-6);
}

TEST(CacheDelta, HitRatioIsHitsOverLookupsBetweenSnapshots) {
  rsp::runtime::CacheStats before, after;
  before.hits = 10;
  before.misses = 5;
  before.entries = 7;
  after.hits = 40;
  after.misses = 15;
  after.entries = 12;
  const CacheDelta d = cache_delta(before, after);
  EXPECT_EQ(d.lookups, 40u);
  EXPECT_EQ(d.hits, 30u);
  EXPECT_DOUBLE_EQ(d.hit_ratio, 0.75);
  EXPECT_EQ(d.entries, 5);

  const CacheDelta idle = cache_delta(after, after);
  EXPECT_EQ(idle.lookups, 0u);
  EXPECT_EQ(idle.hit_ratio, 0.0);
}

// ------------------------------------------------------ the self-test

TEST(CorruptedReference, DseDifferenceIsCounted) {
  std::vector<rsp::kernels::Workload> domain = {
      rsp::kernels::find_in_catalogue("SAD"),
      rsp::kernels::find_in_catalogue("MVM")};
  const rsp::dse::ExplorationResult serial =
      rsp::dse::Explorer(domain.front().array).explore(domain);
  const rsp::api::Service service;
  const rsp::dse::ExplorationResult served =
      service.dse({{"SAD", "MVM"}, rsp::dse::ExplorerConfig{}}).result;
  EXPECT_EQ(exploration_diff(served, serial), "");

  rsp::dse::ExplorationResult corrupted = serial;
  corrupted.base_cycles += 1;
  EXPECT_NE(exploration_diff(served, corrupted), "");
  corrupted = serial;
  corrupted.candidates.back().clock_ns =
      std::nextafter(corrupted.candidates.back().clock_ns, 1e9);
  EXPECT_NE(exploration_diff(served, corrupted), "");
}

TEST(CorruptedReference, PaperDomainIsPinned) {
  const rsp::dse::ExplorationResult result =
      rsp::dse::Explorer(rsp::kernels::paper_suite().front().array)
          .explore(rsp::kernels::paper_suite());
  const std::string golden =
      std::string(PERFBENCH_DATA_DIR) + "/paper_domain_golden.json";
  EXPECT_EQ(paper_golden_diff(result, golden), "");
  rsp::dse::ExplorationResult corrupted = result;
  corrupted.candidates[static_cast<std::size_t>(corrupted.selected)].pareto =
      false;
  EXPECT_NE(paper_golden_diff(corrupted, golden), "");
}

TEST(CorruptedReference, ServeDifferenceIsCounted) {
  const rsp::api::Service service;
  const Json request = Json::parse(
      R"({"protocol_version":2,"id":41,"op":"map","kernel":"SAD","arch":"RSP#4"})");
  const Json body = service.handle(rsp::api::decode_v2_request(request));
  const std::string line =
      rsp::api::encode_v2_response(Json(41), body).dump();
  std::string expected = body.dump();
  EXPECT_EQ(serve_response_diff(line, 41, &expected), "");
  EXPECT_NE(serve_response_diff(line, 42, &expected), "");
  expected.insert(1, " ");
  EXPECT_NE(serve_response_diff(line, 41, &expected), "");

  EXPECT_NE(serve_response_diff(
                R"({"protocol_version":2,"id":3,"ok":false,"error":"x"})", 3,
                nullptr),
            "");
  EXPECT_NE(serve_response_diff("not json", 3, nullptr), "");
}

TEST(CorruptedReference, FuzzSimulatorBugIsCounted) {
  rsp::gen::FuzzOptions options;
  EXPECT_TRUE(rsp::gen::fuzz_one(fuzz_base(1), options).ok);
  options.inject_event_bug = true;
  EXPECT_FALSE(rsp::gen::fuzz_one(fuzz_base(1), options).ok);
}

TEST(Report, ResultLineAndBenchmarkManifestAgree) {
  Outcome outcome;
  outcome.attempted = 4;
  outcome.failed = 1;
  outcome.layer = {{"sched.map_ms", 0.5}};
  const std::vector<Metric> metrics = layer_metric_values(outcome, 12.0);
  ASSERT_EQ(metrics.size(), layer_metrics().size());
  const Json line = Json::parse(result_line(outcome, metrics).dump());
  EXPECT_FALSE(line.at("correct").as_bool());
  EXPECT_EQ(line.at("failed").as_number(), 1);
  EXPECT_EQ(line.at("metrics").at("sched.map_ms").at("value").as_number(), 0.5);
  EXPECT_EQ(line.at("metrics").at("calib.burn_ms").at("value").as_number(), 12);

  outcome.layer = {{"no.such_metric", 1.0}};
  EXPECT_THROW(layer_metric_values(outcome, 0.0), rsp::Error);

  // BENCHMARK.json lists exactly the per-layer metrics a traced run prints.
  std::ifstream file(std::string(PERFBENCH_DATA_DIR) + "/../../BENCHMARK.json");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  const Json manifest = Json::parse(text.str());
  const Json& per_layer = manifest.at("per_layer");
  ASSERT_EQ(per_layer.size(), layer_metrics().size());
  for (std::size_t i = 0; i < per_layer.size(); ++i) {
    EXPECT_EQ(per_layer.at(i).at("name").as_string(), layer_metrics()[i].first);
    EXPECT_EQ(per_layer.at(i).at("unit").as_string(), layer_metrics()[i].second);
  }
}

}  // namespace
}  // namespace perfbench
