// Service façade tour: the one API every transport shares.
//
// Builds an rsp::api::Service (request pool + shared memo caches),
// runs typed requests directly, overlaps independent requests with
// submit(), and round-trips the warm cache through a snapshot file — the
// same machinery `rsp_cli serve` exposes as NDJSON (docs/PROTOCOL.md).
#include <cstdio>
#include <iostream>

#include "api/service.hpp"
#include "util/strings.hpp"

int main() {
  using namespace rsp;

  api::ServiceOptions options;
  options.max_inflight = 4;  // concurrent requests
  api::Service service(options);

  // 1. Typed single calls: a Tables-4/5 evaluation and a mapping report.
  const api::EvalResponse eval = service.eval({"SAD"});
  std::cout << "eval " << eval.kernel << ": " << eval.rows.size()
            << " architectures, best ET "
            << util::format_trimmed(eval.rows.back().execution_time_ns, 0)
            << " ns on " << eval.rows.back().arch_name << "\n";

  const api::MapResponse map = service.map({"MVM", "RSP#4"});
  std::cout << "map " << map.kernel << " on " << map.arch << ": "
            << map.cycles << " cycles, peak mults/cycle "
            << map.peak_critical_issues << "\n";

  // 2. Concurrent requests: two explorations in flight at once, sharing
  //    the memo caches (the kernels' mappings and the measurements of
  //    design points both grids contain are reused).
  api::DseRequest narrow;
  narrow.kernels = {"SAD", "MVM"};
  narrow.config.max_units_per_row = 2;
  narrow.config.max_units_per_col = 1;
  narrow.config.max_stages = 2;
  api::DseRequest wide = narrow;
  wide.config.max_units_per_col = 2;
  auto narrow_future = service.submit(narrow);
  auto wide_future = service.submit(wide);
  for (auto* future : {&narrow_future, &wide_future}) {
    const util::Json body = future->get();
    std::cout << "dse: explored " << body.at("candidates").as_number()
              << " candidates, selected "
              << body.at("selected").at("label").as_string() << "\n";
  }

  // 3. The shared cache is warm now; snapshot it and restore into a fresh
  //    service, which then evaluates without recomputing anything.
  //    Each design point is measured once: when both explorations miss it
  //    at once, one measures and the other waits and counts a hit, so the
  //    counts are those of the two requests run one after the other.
  const api::CacheStatsResponse stats = service.cache_stats({});
  std::cout << "cache: " << stats.stats.entries << " entries, "
            << stats.stats.hits << " hits\n";
  if (stats.stats.entries != 19 || stats.stats.hits != 10) {
    std::cerr << "expected 19 entries and 10 hits\n";
    return 1;
  }
  const std::string snapshot = "/tmp/rsp_service_api_cache.json";
  service.cache_save({snapshot});

  api::Service restored(options);
  const api::CacheLoadResponse loaded = restored.cache_load({snapshot});
  restored.eval({"SAD"});
  std::cout << "restored service: loaded " << loaded.entries_loaded
            << " entries, re-eval of SAD hit "
            << restored.cache_stats({}).stats.hits << " times\n";
  std::remove(snapshot.c_str());
  return 0;
}
