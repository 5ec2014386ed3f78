// The evaluation runtime: thread pool semantics, memo-cache correctness and
// one compiled simulation shared across threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "arch/presets.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/striped_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "util/error.hpp"

namespace rsp::runtime {
namespace {

// ------------------------------------------------------------- thread pool
TEST(ThreadPool, DrainsAllTasksOnDestruction) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&completed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        completed.fetch_add(1);
      });
    // Destruction must wait for every queued task, not just running ones.
  }
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPool, FuturesDeliverValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, FuturesPropagateExceptions) {
  ThreadPool pool(1);
  std::future<void> f =
      pool.submit([] { throw InvalidArgumentError("task failed"); });
  EXPECT_THROW(f.get(), InvalidArgumentError);
}

TEST(ThreadPool, RejectsNegativeThreadCount) {
  EXPECT_THROW(ThreadPool(-1), InvalidArgumentError);
}

TEST(ThreadPool, ZeroPicksHardwareDefault) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), ThreadPool::default_thread_count());
  EXPECT_GE(pool.thread_count(), 1);
}

// ------------------------------------------------------------- eval cache
TEST(EvalCache, MissThenHitWithStats) {
  EvalCache cache(4);
  const std::string key = "SAD|rsp2";
  EXPECT_FALSE(cache.lookup(key).has_value());

  int computed = 0;
  const auto compute = [&computed] {
    ++computed;
    EvalRecord r;
    r.cycles = 42;
    r.stalls = 3;
    return r;
  };
  const EvalRecord first = cache.get_or_compute(key, compute);
  const EvalRecord again = cache.get_or_compute(key, compute);
  EXPECT_EQ(computed, 1);  // second call served from the cache
  EXPECT_EQ(first, again);
  EXPECT_EQ(again.cycles, 42);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);  // explicit lookup + get_or_compute miss
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

// A minimal placed program for key-composition checks.
sched::PlacedProgram tiny_program(std::int64_t priority) {
  sched::PlacedProgram program((arch::ArraySpec()));
  sched::ProgramOp op;
  op.kind = ir::OpKind::kNop;
  op.priority = priority;
  program.add(op);
  return program;
}

TEST(EvalCache, KeyIgnoresCosmeticNameButNotParameters) {
  const arch::Architecture rsp2 = arch::rsp_architecture(2);
  arch::Architecture renamed = rsp2;
  renamed.name = "same-params-different-name";
  const std::string tag = EvalCache::program_tag(tiny_program(0));
  EXPECT_EQ(EvalCache::key("SAD", tag, rsp2),
            EvalCache::key("SAD", tag, renamed));
  EXPECT_NE(EvalCache::key("SAD", tag, rsp2),
            EvalCache::key("SAD", tag, arch::rs_architecture(2)));
  EXPECT_NE(EvalCache::key("SAD", tag, rsp2),
            EvalCache::key("MVM", tag, rsp2));
  // Same kernel id, different mapping: must not alias one cache entry.
  EXPECT_NE(EvalCache::key("SAD", tag, rsp2),
            EvalCache::key("SAD", EvalCache::program_tag(tiny_program(1)),
                           rsp2));
}

TEST(EvalCache, KeyTextMatchesSavedSnapshots) {
  // Saved cache files key their entries by this text, so a change to it
  // turns every saved entry into a cold miss. The bus, width, PE and
  // resource fields are fixed by the template and still written.
  EXPECT_EQ(EvalCache::key("SAD", "42", arch::base_architecture()),
            "SAD#42|8x8;rb2;wb1;dw16;pem--;res2;shr0;shc0;st1");
  EXPECT_EQ(EvalCache::key("SAD", "42", arch::rs_architecture(3)),
            "SAD#42|8x8;rb2;wb1;dw16;pe-s-;res2;shr2;shc1;st1");
  EXPECT_EQ(EvalCache::key("SAD", "42", arch::rsp_architecture(4)),
            "SAD#42|8x8;rb2;wb1;dw16;pe-sp;res2;shr2;shc2;st2");
  EXPECT_EQ(EvalCache::key("gen:7", "9",
                           arch::custom_architecture("c", 4, 4, 1, 2, 3)),
            "gen:7#9|4x4;rb2;wb1;dw16;pe-sp;res2;shr1;shc2;st3");
}

// Four ops covering every field program_tag hashes: two loads and a
// constant feeding an add that also waits on an order dependence.
sched::PlacedProgram tag_program(
    const std::function<void(std::vector<sched::ProgramOp>&)>& edit) {
  std::vector<sched::ProgramOp> ops(4);
  ops[0].kind = ir::OpKind::kLoad;
  ops[0].array = "x";
  ops[0].address = 2;
  ops[1].kind = ir::OpKind::kLoad;
  ops[1].pe = {0, 1};
  ops[1].priority = 1;
  ops[1].array = "y";
  ops[1].address = 5;
  ops[2].kind = ir::OpKind::kConst;
  ops[2].pe = {1, 0};
  ops[2].priority = 2;
  ops[2].imm = 7;
  ops[3].kind = ir::OpKind::kAdd;
  ops[3].pe = {1, 1};
  ops[3].priority = 3;
  ops[3].operands = {{0, 0}, {sched::kNoProducer, 3}};
  ops[3].order_deps = {2};
  ops[3].not_before = 4;
  edit(ops);
  sched::PlacedProgram program((arch::ArraySpec()));
  for (sched::ProgramOp& op : ops) program.add(std::move(op));
  return program;
}

TEST(EvalCache, ProgramTagChangesWithEveryHashedField) {
  using Ops = std::vector<sched::ProgramOp>;
  const std::vector<std::function<void(Ops&)>> edits = {
      [](Ops&) {},
      [](Ops& o) { o[3].kind = ir::OpKind::kSub; },
      [](Ops& o) { o[3].pe.row = 2; },
      [](Ops& o) { o[3].pe.col = 2; },
      [](Ops& o) { o[3].priority = 9; },
      [](Ops& o) { o[2].imm = 8; },
      [](Ops& o) { o[0].address = 3; },
      [](Ops& o) { o[3].not_before = 5; },
      [](Ops& o) { o[1].array = "z"; },
      [](Ops& o) { o[3].operands[0].producer = 1; },
      [](Ops& o) { o[3].operands[1].imm = 4; },
      [](Ops& o) { o[3].order_deps[0] = 1; },
      [](Ops& o) { o[3].order_deps.push_back(1); },
  };
  std::set<std::string> tags;
  for (const auto& edit : edits)
    tags.insert(EvalCache::program_tag(tag_program(edit)));
  EXPECT_EQ(tags.size(), edits.size());
}

TEST(EvalCache, ProgramTagKeepsOperandsAndOrderDepsApart) {
  // The same producer numbers, moved between the operand list and the
  // order dependences, make a different program and a different tag.
  const std::string as_operands =
      EvalCache::program_tag(tag_program([](auto& o) {
        o[3].operands = {{0, 0}, {1, 0}};
        o[3].order_deps = {2};
      }));
  const std::string as_deps = EvalCache::program_tag(tag_program([](auto& o) {
    o[3].operands = {{0, 0}, {2, 0}};
    o[3].order_deps = {1};
  }));
  EXPECT_NE(as_operands, as_deps);
}

// Equal in every field program_tag hashes.
bool same_tagged_content(const sched::PlacedProgram& a,
                         const sched::PlacedProgram& b) {
  if (a.size() != b.size()) return false;
  const auto same_operand = [](const sched::ProgOperand& p,
                               const sched::ProgOperand& q) {
    return p.producer == q.producer && p.imm == q.imm;
  };
  for (sched::ProgIndex i = 0; i < a.size(); ++i)
    if (!(a.kind(i) == b.kind(i) && a.pe(i) == b.pe(i) &&
          a.priority(i) == b.priority(i) && a.imm(i) == b.imm(i) &&
          a.address(i) == b.address(i) &&
          a.not_before(i) == b.not_before(i) &&
          a.array_name(i) == b.array_name(i) &&
          std::ranges::equal(a.order_deps(i), b.order_deps(i)) &&
          std::ranges::equal(a.operands(i), b.operands(i), same_operand)))
      return false;
  return true;
}

TEST(EvalCache, ProgramTagsOfDistinctProgramsDiffer) {
  // Two catalogue kernels (SAD and H264-SAD4x4) place the same program;
  // every other pair must differ in its tag.
  std::vector<kernels::Workload> domain = kernels::full_catalogue();
  for (int seed = 1; seed <= 200; ++seed)
    domain.push_back(
        kernels::find_in_catalogue("gen:" + std::to_string(seed)));
  std::map<std::string, std::pair<std::string, sched::PlacedProgram>> owner;
  for (const kernels::Workload& w : domain) {
    const sched::LoopPipeliner mapper(w.array);
    sched::PlacedProgram program =
        mapper.map(w.kernel, w.hints, w.reduction);
    const std::string tag = EvalCache::program_tag(program);
    const auto it = owner.find(tag);
    if (it == owner.end()) {
      owner.emplace(tag, std::make_pair(w.name, std::move(program)));
      continue;
    }
    EXPECT_TRUE(same_tagged_content(it->second.second, program))
        << w.name << " shares its tag with " << it->second.first;
  }
  EXPECT_EQ(owner.size(), domain.size() - 1);
}

TEST(EvalCache, FailedComputeIsRethrownAndNeverCached) {
  // A compute that throws publishes nothing: every repeat recomputes and
  // fails with the same message, and only a later success is memoized.
  EvalCache cache;
  int calls = 0;
  const auto failing = [&calls]() -> EvalRecord {
    ++calls;
    throw InfeasibleError("no unit reachable");
  };
  for (int repeat = 0; repeat < 2; ++repeat) {
    try {
      cache.get_or_compute("k", failing);
      FAIL() << "expected InfeasibleError";
    } catch (const InfeasibleError& e) {
      EXPECT_STREQ(e.what(), "no unit reachable");
    }
  }
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.get_or_compute("k", [] { return EvalRecord{7, 0, 7, 1}; }),
            (EvalRecord{7, 0, 7, 1}));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(EvalCache, SerializeDeserializeRoundTrip) {
  EvalCache cache(4);
  for (int v = 1; v <= 5; ++v) {
    EvalRecord r;
    r.cycles = v;
    r.stalls = v + 1;
    r.nostall_cycles = v + 2;
    r.max_critical_issues = v % 3;
    cache.insert("k" + std::to_string(v), r);
  }
  const util::Json doc = cache.serialize();
  EXPECT_EQ(doc.at("format").as_string(), "rsp-eval-cache");
  EXPECT_EQ(doc.at("version").as_number(), EvalCache::kSerialFormatVersion);
  EXPECT_EQ(doc.at("entries").size(), 5u);

  // Restore into a differently-sharded cache: shard count is a layout
  // detail, not part of the format.
  EvalCache restored(2);
  EXPECT_EQ(restored.deserialize(doc), 5u);
  EXPECT_EQ(restored.stats().entries, 5u);
  for (int v = 1; v <= 5; ++v) {
    const auto record = restored.lookup("k" + std::to_string(v));
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->cycles, v);
    EXPECT_EQ(record->stalls, v + 1);
    EXPECT_EQ(record->nostall_cycles, v + 2);
    EXPECT_EQ(record->max_critical_issues, v % 3);
  }
}

TEST(EvalCache, DeserializeRejectsVersionMismatchWithoutHalfLoading) {
  EvalCache cache;
  EvalRecord r;
  r.cycles = 9;
  cache.insert("k", r);
  util::Json doc = cache.serialize();
  doc.set("version", EvalCache::kSerialFormatVersion + 1);

  EvalCache restored;
  try {
    restored.deserialize(doc);
    FAIL() << "expected a version-mismatch rejection";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  EXPECT_EQ(restored.stats().entries, 0u);

  // Foreign and malformed documents are rejected whole as well.
  EXPECT_THROW(restored.deserialize(util::Json::parse("{\"x\": 1}")),
               InvalidArgumentError);
  util::Json tampered = util::Json::parse(
      "{\"format\": \"rsp-eval-cache\", \"version\": 1, "
      "\"entries\": [{\"key\": \"k\", \"cycles\": 1.5, \"stalls\": 0, "
      "\"nostall_cycles\": 0, \"max_critical_issues\": 0}]}");
  EXPECT_THROW(restored.deserialize(tampered), InvalidArgumentError);
  EXPECT_EQ(restored.stats().entries, 0u);
}

TEST(EvalCache, ConcurrentGetOrComputeYieldsOneConsistentValue) {
  EvalCache cache(2);  // few shards → real contention
  ThreadPool pool(4);
  std::vector<std::future<EvalRecord>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([&cache, i] {
      const std::string key = "k" + std::to_string(i % 8);
      return cache.get_or_compute(key, [i] {
        EvalRecord r;
        r.cycles = (i % 8) + 1;  // deterministic per key
        return r;
      });
    }));
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().cycles, (i % 8) + 1);
  EXPECT_EQ(cache.stats().entries, 8u);
}

// Runs `threads` callers of get_or_compute on one cold key. The compute
// holds until every other caller has counted its hit (they wait on the one
// compute in flight), or for at most 5 s, so the misses really race.
std::vector<std::function<EvalRecord()>> racing_callers(
    EvalCache& cache, int threads, std::atomic<int>& computes, bool fail) {
  std::vector<std::function<EvalRecord()>> callers;
  for (int t = 0; t < threads; ++t)
    callers.push_back([&cache, &computes, threads, fail] {
      return cache.get_or_compute("cold", [&cache, &computes, threads, fail] {
        ++computes;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (cache.stats().hits < static_cast<std::uint64_t>(threads - 1) &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (fail) throw InfeasibleError("no unit reachable");
        return EvalRecord{11, 0, 11, 1};
      });
    });
  return callers;
}

TEST(EvalCache, RacingMissesComputeOnce) {
  constexpr int kThreads = 8;
  EvalCache cache(2);
  std::atomic<int> computes{0};
  std::vector<std::future<EvalRecord>> results;
  for (auto& caller : racing_callers(cache, kThreads, computes, false))
    results.push_back(std::async(std::launch::async, caller));
  for (std::future<EvalRecord>& r : results)
    EXPECT_EQ(r.get(), (EvalRecord{11, 0, 11, 1}));
  EXPECT_EQ(computes.load(), 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EvalCache, ThrowingComputeReachesEveryWaiter) {
  constexpr int kThreads = 8;
  EvalCache cache(2);
  std::atomic<int> computes{0};
  std::vector<std::future<EvalRecord>> results;
  for (auto& caller : racing_callers(cache, kThreads, computes, true))
    results.push_back(std::async(std::launch::async, caller));
  for (std::future<EvalRecord>& r : results) {
    try {
      r.get();
      ADD_FAILURE() << "expected InfeasibleError";
    } catch (const InfeasibleError& e) {
      EXPECT_STREQ(e.what(), "no unit reachable");
    }
  }
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().entries, 0u);
  // Nothing was memoized and nothing stays in flight: the next call
  // computes again.
  EXPECT_EQ(cache.get_or_compute("cold", [&computes] {
    ++computes;
    return EvalRecord{7, 0, 7, 1};
  }),
            (EvalRecord{7, 0, 7, 1}));
  EXPECT_EQ(computes.load(), 2);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ------------------------------------------------------ bounded eviction
TEST(EvalCache, EvictsLeastRecentlyUsedWhenBounded) {
  EvalCache cache(1, 4);  // one shard so capacity is exact
  for (int v = 0; v < 4; ++v) {
    EvalRecord r;
    r.cycles = v;
    cache.insert("k" + std::to_string(v), r);
  }
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().max_entries, 4u);

  // A fifth insert evicts the least recently used key (k0).
  EvalRecord r;
  r.cycles = 4;
  cache.insert("k4", r);
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup("k0").has_value());
  EXPECT_TRUE(cache.lookup("k1").has_value());
}

TEST(EvalCache, HitRefreshesRecencyWithinAShard) {
  EvalCache cache(1, 3);
  for (const char* key : {"a", "b", "c"}) cache.insert(key, EvalRecord{});
  ASSERT_TRUE(cache.lookup("a").has_value());  // a is now the most recent

  cache.insert("d", EvalRecord{});
  EXPECT_FALSE(cache.lookup("b").has_value());
  for (const char* key : {"a", "c", "d"})
    EXPECT_TRUE(cache.lookup(key).has_value()) << key;
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EvalCache, NewKeysAreNeverTheirOwnEvictionVictim) {
  // Degenerate small shards: with capacity 1 and the sole resident entry
  // just hit, an insert must evict that entry — not the key just admitted,
  // which would pin the old entry forever and make the cache reject every
  // new key.
  EvalCache cache(1, 1);
  EvalRecord a;
  a.cycles = 1;
  cache.insert("a", a);
  ASSERT_TRUE(cache.lookup("a").has_value());

  EvalRecord b;
  b.cycles = 2;
  cache.insert("b", b);
  EXPECT_FALSE(cache.lookup("a").has_value());
  const auto served = cache.lookup("b");
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->cycles, 2);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EvalCache, UnboundedByDefault) {
  EvalCache cache(2);
  for (int v = 0; v < 256; ++v) {
    EvalRecord r;
    r.cycles = v;
    cache.insert("k" + std::to_string(v), r);
  }
  EXPECT_EQ(cache.stats().entries, 256u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().max_entries, 0u);
}

TEST(EvalCache, EvictingCacheSnapshotRoundTrips) {
  EvalCache cache(2, 8);
  for (int v = 0; v < 32; ++v) {
    EvalRecord r;
    r.cycles = v;
    cache.insert("k" + std::to_string(v), r);
  }
  const CacheStats before = cache.stats();
  EXPECT_GT(before.evictions, 0u);
  const util::Json doc = cache.serialize();
  EXPECT_EQ(doc.at("entries").size(), before.entries);

  // Restoring into an equally-bounded cache keeps every snapshotted entry
  // (resident count <= capacity), and each survives with its exact value.
  EvalCache restored(2, 8);
  EXPECT_EQ(restored.deserialize(doc), before.entries);
  EXPECT_EQ(restored.stats().entries, before.entries);
  for (std::size_t i = 0; i < doc.at("entries").size(); ++i) {
    const util::Json& entry = doc.at("entries").at(i);
    const auto record = restored.lookup(entry.at("key").as_string());
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->cycles, entry.at("cycles").as_number());
  }
}

TEST(EvalCache, EvictionUnderConcurrencyStaysConsistent) {
  // Hammer a small bounded cache from many threads: every get_or_compute
  // must return the right value for its key regardless of eviction churn,
  // and the table must end within its (per-shard) bound.
  EvalCache cache(2, 8);
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 256; ++i)
    futures.push_back(pool.submit([&cache, i] {
      const int key = i % 32;
      const EvalRecord served =
          cache.get_or_compute("k" + std::to_string(key), [key] {
            EvalRecord r;
            r.cycles = key;
            return r;
          });
      ASSERT_EQ(served.cycles, key);
    }));
  for (std::future<void>& f : futures) f.get();
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  // Per-shard bound: 2 shards x ceil(8/2) entries.
  EXPECT_LE(stats.entries, 8u);
}

// ------------------------------------------------- shared timing profile
TEST(ThreadPool, SharedTimingProfileMeasuresAlikeUnderRacingMemoFills) {
  // Serve threads measure through the timing profile of one step-1
  // record's program, whose stall-free memo starts cold. Four tasks read
  // it from the record and sweep the default grid at once (each from a
  // different start point), so the fills of every multiplier latency race;
  // every task must measure what a serial sweep on a fresh record
  // measures.
  const kernels::Workload w = kernels::find_workload("State");
  const dse::Explorer explorer(w.array);
  const arch::Architecture base = explorer.base_architecture();
  std::vector<arch::Architecture> grid;
  for (const dse::DesignPoint& point : explorer.enumerate_points())
    grid.push_back(explorer.point_architecture(point, base));
  ASSERT_EQ(grid.size(), 97u);

  const sched::ContextScheduler scheduler;
  const auto measure_at = [&](const sched::TimingProfile& profile,
                              std::size_t i) {
    const core::MeasuredPerf m =
        core::measure_perf(scheduler, profile, grid[i]);
    return EvalRecord{m.perf.cycles, m.perf.stalls, m.perf.nostall_cycles,
                      m.max_critical_issues};
  };
  const dse::KernelPrep fresh = dse::prepare_kernel(w);
  std::vector<EvalRecord> serial;
  for (std::size_t i = 0; i < grid.size(); ++i)
    serial.push_back(measure_at(*fresh.program.timing_profile(), i));

  const std::shared_ptr<const dse::KernelPrep> record =
      std::make_shared<const dse::KernelPrep>(dse::prepare_kernel(w));
  constexpr int kTasks = 4;
  ThreadPool pool(kTasks);
  std::atomic<int> started{0};
  std::vector<std::future<std::vector<EvalRecord>>> futures;
  for (int t = 0; t < kTasks; ++t)
    futures.push_back(pool.submit([&, t] {
      const std::shared_ptr<const sched::TimingProfile> profile =
          record->program.timing_profile();
      // Start together, so the cold fills overlap.
      started.fetch_add(1);
      while (started.load() < kTasks) std::this_thread::yield();
      std::vector<EvalRecord> out(grid.size());
      for (std::size_t k = 0; k < grid.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(t)) % grid.size();
        out[i] = measure_at(*profile, i);
      }
      return out;
    }));
  for (int t = 0; t < kTasks; ++t)
    EXPECT_EQ(futures[static_cast<std::size_t>(t)].get(), serial)
        << "task " << t;
}

// ------------------------------------------------ shared compiled program
TEST(ThreadPool, SharesOneCompiledSimProgramAcrossThreads) {
  // SimProgram::run is const and reentrant: four pool threads run one
  // compiled program at once, each on its own memory, and every result
  // equals a serial run of the same memory.
  const kernels::Workload w = kernels::find_workload("SAD");
  const sched::LoopPipeliner mapper(w.array);
  const sched::ConfigurationContext ctx = sched::ContextScheduler().schedule(
      mapper.map(w.kernel, w.hints, w.reduction), arch::rsp_architecture(4));
  const sim::SimProgram program = sim::SimProgram::compile(ctx);

  // Each memory is perturbed at a distinct address, so a result handed to
  // the wrong job could not pass.
  constexpr int kThreads = 4;
  std::vector<ir::Memory> memories(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    w.setup(memories[static_cast<std::size_t>(i)]);
    memories[static_cast<std::size_t>(i)].write("cur", i, 100 + i);
  }

  ThreadPool pool(kThreads);
  std::atomic<int> started{0};
  std::vector<std::future<std::pair<sim::SimResult, ir::Memory>>> futures;
  for (const ir::Memory& initial : memories)
    futures.push_back(pool.submit([&, memory = initial]() mutable {
      // Start together, so the runs overlap.
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      sim::SimResult result = program.run(memory);
      return std::make_pair(std::move(result), std::move(memory));
    }));

  const sim::Machine machine;  // serial reference, compiled afresh
  for (std::size_t i = 0; i < memories.size(); ++i) {
    ir::Memory serial = memories[i];
    const sim::SimResult expected = machine.run(ctx, serial);
    const auto [result, memory] = futures[i].get();
    EXPECT_TRUE(result == expected) << "job " << i;
    EXPECT_TRUE(memory == serial) << "job " << i;
  }
}

}  // namespace
}  // namespace rsp::runtime
