#include "core/estimate.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/error.hpp"

namespace rsp::core {

namespace {

/// Maximum number of one cycle's multiplications the row and column unit
/// pools can serve. Pool nodes are numbered rows first (row r is node r),
/// then columns (column c is node rows + c); a node's capacity is its
/// pool's unit count. The scratch arrays are carved from one buffer sized
/// once per estimate and reused for every cycle, so matching a cycle
/// allocates nothing.
class PoolMatcher {
 public:
  PoolMatcher(const arch::ArraySpec& array, const arch::SharingPlan& plan,
              int max_sites)
      : rows_(array.rows) {
    const auto nodes = static_cast<std::size_t>(array.rows + array.cols);
    buffer_.assign(5 * nodes + static_cast<std::size_t>(max_sites), 0);
    capacity_ = buffer_.data();
    load_ = capacity_ + nodes;
    seen_ = load_ + nodes;
    via_ = seen_ + nodes;
    queue_ = via_ + nodes;
    pool_of_ = queue_ + nodes;
    std::fill(capacity_, capacity_ + rows_, plan.units_per_row);
    std::fill(capacity_ + rows_, load_, plan.units_per_col);
    std::fill(via_, queue_, -1);
    std::fill_n(pool_of_, max_sites, -1);
  }
  PoolMatcher(const PoolMatcher&) = delete;
  PoolMatcher& operator=(const PoolMatcher&) = delete;

  int served(const arch::PeCoord* sites, int count) {
    ++epoch_;
    int matched = 0;
    for (int m = 0; m < count; ++m) {
      const int row = sites[m].row;
      const int col = rows_ + sites[m].col;
      const int pool = load_[row] < capacity_[row]   ? row
                       : load_[col] < capacity_[col] ? col
                                                     : -1;
      if (pool >= 0) {
        pool_of_[m] = pool;
        ++load_[pool];
        ++matched;
      } else if (augment(sites, m)) {
        ++matched;
        ++epoch_;  // the matching moved: forget this search's marks
      } else {
        pool_of_[m] = -1;
      }
    }
    for (int m = 0; m < count; ++m)
      if (pool_of_[m] >= 0) --load_[pool_of_[m]];
    return matched;
  }

 private:
  // Breadth-first search over pool nodes for room for site m0, whose own
  // pools are full: m0 enters one of them, a site assigned there moves to
  // its other pool, and so on until a pool with a free unit takes the last
  // move. Sites [0, m0) are matched or unservable. Nodes a failed search
  // reached stay marked until the matching next moves: every pool they
  // reach is full, and assigning later sites to free pools adds no path
  // out of them.
  bool augment(const arch::PeCoord* sites, int m0) {
    std::size_t head = 0;
    std::size_t tail = 0;
    const auto visit = [&](int pool, int mover) {
      seen_[pool] = epoch_;
      via_[pool] = mover;
      queue_[tail++] = pool;
    };
    for (const int start : {sites[m0].row, rows_ + sites[m0].col})
      if (capacity_[start] > 0 && seen_[start] != epoch_) visit(start, m0);
    while (head < tail) {
      const int pool = queue_[head++];
      for (int s = 0; s < m0; ++s) {
        if (pool_of_[s] != pool) continue;
        const int other = pool < rows_ ? rows_ + sites[s].col : sites[s].row;
        if (capacity_[other] == 0 || seen_[other] == epoch_) continue;
        visit(other, s);
        if (load_[other] < capacity_[other]) {
          shift_into(other, m0);
          return true;
        }
      }
    }
    return false;
  }

  // Moves every site on the found path one pool along it, ending with m0
  // entering its own pool; only the path's last pool gains a site.
  void shift_into(int pool, int m0) {
    ++load_[pool];
    for (;;) {
      const int mover = via_[pool];
      const int from = pool_of_[mover];
      pool_of_[mover] = pool;
      if (mover == m0) return;
      pool = from;
    }
  }

  int rows_;
  std::vector<int> buffer_;  ///< backs the six arrays below
  int* capacity_ = nullptr;
  int* load_ = nullptr;
  int* seen_ = nullptr;     ///< == epoch_: reached since the last move
  int* via_ = nullptr;      ///< site that moves into the node
  int* queue_ = nullptr;
  int* pool_of_ = nullptr;  ///< per site: its pool node, -1 = unserved
  /// Bumped once per served cycle and per augmentation, so at most
  /// cycles + sites per estimate.
  int epoch_ = 0;
};

}  // namespace

EstimateProfile::EstimateProfile(
    const sched::ConfigurationContext& base_context)
    : array_(base_context.architecture().array),
      base_cycles_(base_context.length()) {
  if (base_context.architecture().shares_multiplier())
    throw InvalidArgumentError(
        "estimate_performance expects the base-architecture context");

  // One pass over the ops: the longest-chain DP in index order (operands
  // reference earlier indices) and a count of multiplications per cycle.
  // A counting sort then groups the sites by cycle: prefix sums give each
  // cycle's end offset, and each cycle is filled from its end.
  const std::vector<sched::ScheduledOp>& ops = base_context.ops();
  const auto cycles = static_cast<std::size_t>(base_cycles_);
  cycle_start_.assign(cycles + 1, 0);
  std::vector<int> depth(ops.size(), 0);
  std::vector<std::size_t> mults;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    int in_depth = 0;
    for (const sched::ProgOperand& o : ops[i].operands) {
      if (o.is_imm()) continue;
      in_depth = std::max(in_depth, depth[static_cast<std::size_t>(o.producer)]);
    }
    const bool critical = ir::is_critical_op(ops[i].kind);
    depth[i] = in_depth + (critical ? 1 : 0);
    longest_chain_ = std::max(longest_chain_, depth[i]);
    if (critical) {
      mults.push_back(i);
      ++cycle_start_[static_cast<std::size_t>(ops[i].cycle)];
    }
  }
  std::partial_sum(cycle_start_.begin(), cycle_start_.end(),
                   cycle_start_.begin());
  sites_.resize(mults.size());
  for (const std::size_t i : mults)
    sites_[static_cast<std::size_t>(
        --cycle_start_[static_cast<std::size_t>(ops[i].cycle)])] = ops[i].pe;
  for (std::size_t t = 0; t < cycles; ++t)
    max_sites_ = std::max(max_sites_, cycle_start_[t + 1] - cycle_start_[t]);
}

PerfEstimate EstimateProfile::estimate(const arch::Architecture& target) const {
  if (target.array != array_)
    throw InvalidArgumentError("array geometries differ");

  PerfEstimate est;
  est.base_cycles = base_cycles_;

  if (target.shares_multiplier()) {
    const int capacity = target.sharing.total_units(target.array);
    RSP_ASSERT(capacity > 0);
    PoolMatcher matcher(array_, target.sharing, max_sites_);

    // Backlog model: each cycle serves what the unit pools can reach
    // (exact matching); the surplus queues and may drain into later spare
    // capacity. Only the final backlog forces extra cycles. Dependences
    // and operand routing are ignored. The paper calls the result an
    // "upper bound of the performance"; it held on the paper domain's 97
    // grid points but is not a bound in either direction elsewhere (see
    // the oracle, bench/bench_dse_oracle.cpp).
    long backlog = 0;
    for (std::size_t t = 0; t + 1 < cycle_start_.size(); ++t) {
      const int first = cycle_start_[t];
      const int demand = cycle_start_[t + 1] - first;
      const int served =
          demand == 0 ? 0
                      : matcher.served(&sites_[static_cast<std::size_t>(first)],
                                       demand);
      backlog += demand - served;
      if (demand < capacity)
        backlog = std::max<long>(0, backlog - (capacity - demand));
    }
    est.rs_stall_bound = static_cast<int>((backlog + capacity - 1) / capacity);
  }
  if (target.pipelines_multiplier())
    est.rp_overhead = (target.sharing.pipeline_stages - 1) * longest_chain_;
  return est;
}

PerfEstimate estimate_performance(
    const sched::ConfigurationContext& base_context,
    const arch::Architecture& target) {
  return EstimateProfile(base_context).estimate(target);
}

}  // namespace rsp::core
