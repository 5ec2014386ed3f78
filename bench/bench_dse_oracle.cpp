// Exhaustive DSE oracle: how much the fast estimate costs the Fig. 7 flow.
//
// For each domain it runs Explorer::explore with the default grid, then
// measures every grid point exactly (sched::measure on each kernel's timing
// profile) and judges it with step 3's two reject rules, eq. (2) cost and
// the performance floor applied to the exact time. The area × time optimum
// of the surviving points is the exhaustive optimum; regret is how much
// worse the explorer's selection scores. The domains are the paper domain,
// each catalogue kernel alone and gen:1..200, one kernel each.
//
// One CSV row per domain (domain, selected, optimum, regret %, points whose
// estimate exceeds the exact cycles, points); `ctest -R golden.dse_oracle`
// byte-compares it with tests/data/golden/dse_oracle.csv. The exact sweep's
// wall time is printed, not written, so the CSV stays deterministic.
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>

#include "bench_common.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"

namespace {

using namespace rsp;

struct OracleRow {
  std::string domain;
  std::string selected;
  std::string optimum;
  double regret_percent = 0.0;
  int over = 0;  ///< points whose Σ estimated cycles exceed Σ exact cycles
  int points = 0;
};

struct GroupSummary {
  int domains = 0;
  int misses = 0;
  double worst_regret = 0.0;
  std::string worst_domain = "-";
  int over = 0;
  int points = 0;

  void add(const OracleRow& row) {
    ++domains;
    over += row.over;
    points += row.points;
    if (row.selected == row.optimum) return;
    ++misses;
    if (row.regret_percent > worst_regret) {
      worst_regret = row.regret_percent;
      worst_domain = row.domain;
    }
  }
};

double area_time(const dse::Candidate& c, double time_ns) {
  return time_ns * c.area_synthesized;
}

OracleRow run_oracle(const std::string& name,
                     const std::vector<kernels::Workload>& domain,
                     double& sweep_s) {
  const dse::Explorer explorer(domain.front().array);
  std::vector<std::shared_ptr<const dse::KernelPrep>> preps(domain.size());
  const dse::PrepareFn prepare = [&preps](std::size_t k,
                                          const kernels::Workload& w) {
    preps[k] = std::make_shared<const dse::KernelPrep>(dse::prepare_kernel(w));
    return dse::PreparedKernel{preps[k], nullptr};
  };
  const dse::ExplorationResult result = explorer.explore(domain, prepare);
  const dse::Candidate& selected = result.best();

  // Step 3 on exact cycles: estimate_candidate's reject rules, fed the
  // exact measurement in place of the estimate.
  const sched::ContextScheduler scheduler;
  const dse::EstimateFn exact = [&](std::size_t k,
                                    const arch::Architecture& a) {
    core::PerfEstimate e;
    e.base_cycles =
        sched::measure(scheduler, preps[k]->timing_profile, a).cycles;
    return e;
  };
  const arch::Architecture base = explorer.base_architecture();
  const double area_raw = explorer.base_area_raw();
  OracleRow row;
  row.domain = name;
  row.selected = selected.point.label();
  double best_score = std::numeric_limits<double>::infinity();
  const auto start = std::chrono::steady_clock::now();
  for (const dse::Candidate& c : result.candidates) {
    const dse::Candidate judged = explorer.estimate_candidate(
        c.point, base, domain.size(), exact, area_raw, result.base_time_ns);
    ++row.points;
    if (c.estimated_cycles > judged.estimated_cycles) ++row.over;
    if (judged.rejected) continue;
    const double score = area_time(judged, judged.estimated_time_ns);
    if (score < best_score) {
      best_score = score;
      row.optimum = judged.point.label();
    }
  }
  sweep_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  row.regret_percent =
      100.0 * (area_time(selected, selected.exact_time_ns) / best_score - 1.0);
  return row;
}

/// Named domains of one summary row.
struct Group {
  std::string name;
  std::vector<std::pair<std::string, std::vector<kernels::Workload>>> domains;
};

}  // namespace

int main() {
  bench::print_header(
      "Exhaustive DSE oracle: explorer selection vs exact area x time optimum");

  std::vector<Group> groups(3);
  groups[0].name = "paper domain";
  groups[0].domains.emplace_back("paper", kernels::paper_suite());
  groups[1].name = "catalogue singles";
  for (const kernels::Workload& w : kernels::full_catalogue())
    groups[1].domains.emplace_back(w.name, std::vector{w});
  groups[2].name = "gen:1..200";
  for (int seed = 1; seed <= 200; ++seed) {
    const std::string name = "gen:" + std::to_string(seed);
    groups[2].domains.emplace_back(
        name, std::vector{kernels::find_in_catalogue(name)});
  }

  util::CsvWriter csv({"domain", "selected", "optimum", "regret_percent",
                       "estimate_over_exact", "points"});
  util::Table misses({"Domain", "Selected", "Optimum", "Regret %"});
  util::Table summary({"Domains", "Count", "Selection != optimum",
                       "Worst regret %", "Estimate > exact"});
  double sweep_s = 0.0;
  for (const Group& g : groups) {
    GroupSummary group;
    for (const auto& [name, domain] : g.domains) {
      const OracleRow row = run_oracle(name, domain, sweep_s);
      group.add(row);
      const std::string regret = util::format_fixed(row.regret_percent, 2);
      csv.add_row({row.domain, row.selected, row.optimum, regret,
                   std::to_string(row.over), std::to_string(row.points)});
      if (row.selected != row.optimum)
        misses.add_row({row.domain, row.selected, row.optimum, regret});
    }
    summary.add_row({g.name, std::to_string(group.domains),
                     std::to_string(group.misses),
                     util::format_fixed(group.worst_regret, 2) + " (" +
                         group.worst_domain + ")",
                     std::to_string(group.over) + " of " +
                         std::to_string(group.points)});
  }
  std::cout << summary.render() << "\nMisses:\n"
            << misses.render() << "\nexact sweep (sched::measure on each "
            << "kernel's timing profile): "
            << util::format_fixed(sweep_s, 3) << " s\n";
  bench::maybe_write_csv(csv, "dse_oracle");
  return 0;
}
