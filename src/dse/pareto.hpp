// Pareto-front extraction over two minimised objectives.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace rsp::dse {

/// Returns the indices of the Pareto-optimal items: item i survives unless
/// some j is no worse in both objectives and strictly better in one.
template <typename T>
std::vector<std::size_t> pareto_front(const std::vector<T>& items,
                                      std::function<double(const T&)> obj_a,
                                      std::function<double(const T&)> obj_b) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < items.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < items.size() && !dominated; ++j) {
      if (i == j) continue;
      const double ai = obj_a(items[i]), bi = obj_b(items[i]);
      const double aj = obj_a(items[j]), bj = obj_b(items[j]);
      const bool no_worse = aj <= ai && bj <= bi;
      const bool strictly_better = aj < ai || bj < bi;
      if (no_worse && strictly_better) dominated = true;
      // Exact duplicates: keep the first occurrence only.
      if (aj == ai && bj == bi && j < i) dominated = true;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

/// ε-relaxed Pareto front: item i is dropped only when some j is better by
/// more than a factor (1+ε) in *both* objectives. With ε > 0 the front also
/// keeps near-optimal points — useful when the objectives are estimates and
/// the final ranking uses exact evaluation. The DSE's time estimate is not
/// a bound in either direction off the paper domain (see
/// bench/bench_dse_oracle.cpp), so no ε guarantees the optimum survives.
template <typename T>
std::vector<std::size_t> epsilon_pareto_front(
    const std::vector<T>& items, std::function<double(const T&)> obj_a,
    std::function<double(const T&)> obj_b, double epsilon) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < items.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < items.size() && !dominated; ++j) {
      if (i == j) continue;
      if (obj_a(items[j]) * (1.0 + epsilon) <= obj_a(items[i]) &&
          obj_b(items[j]) * (1.0 + epsilon) <= obj_b(items[i]))
        dominated = true;
      // Exact duplicates: keep the first occurrence only.
      if (obj_a(items[j]) == obj_a(items[i]) &&
          obj_b(items[j]) == obj_b(items[i]) && j < i)
        dominated = true;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

}  // namespace rsp::dse
