// Configuration context: the fully scheduled program for one architecture.
//
// This corresponds to the paper's "configuration contexts": per PE and per
// cycle, which operation executes, where its operands come from, and — on
// RS/RSP architectures — which shared unit performs a multiplication. The
// RSP exploration rearranges these contexts; here the rearranged context is
// produced directly by scheduling the placed program under the target
// architecture's resource constraints.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/config_cache.hpp"
#include "arch/presets.hpp"
#include "sched/program.hpp"

namespace rsp::sched {

/// One scheduled operation.
struct ScheduledOp {
  ir::OpKind kind = ir::OpKind::kNop;
  arch::PeCoord pe;
  int cycle = 0;    ///< issue cycle
  int latency = 1;  ///< cycles until the result is consumable
  std::int64_t priority = 0;
  std::int64_t iter = -1;
  ir::OpId source = ir::kInvalidOp;
  std::vector<ProgOperand> operands;  ///< indices into the context's op list
  std::vector<ProgIndex> order_deps;  ///< memory-ordering predecessors
  std::int64_t imm = 0;
  std::string array;
  std::int64_t address = 0;
  /// Shared unit executing this op (engaged iff critical op on a sharing
  /// architecture).
  std::optional<arch::SharedUnitId> unit;
};

class ConfigurationContext {
 public:
  ConfigurationContext(arch::Architecture architecture,
                       std::vector<ScheduledOp> ops);

  const arch::Architecture& architecture() const { return arch_; }
  const std::vector<ScheduledOp>& ops() const { return ops_; }
  const ScheduledOp& op(ProgIndex i) const;
  std::int64_t size() const { return static_cast<std::int64_t>(ops_.size()); }

  /// Schedule length in cycles: max over ops of (cycle + latency).
  int length() const { return length_; }

  /// Number of critical-resource (mult) issues per cycle.
  std::vector<int> critical_issues_per_cycle() const;

  /// Max of the above — the paper's Table 3 "Mult No" metric.
  int max_critical_issues_per_cycle() const;

  /// Encodes the schedule into per-PE configuration-cache words
  /// (storage/footprint model; the functional simulator executes the
  /// ScheduledOps directly).
  arch::ConfigCache encode() const;

 private:
  arch::Architecture arch_;
  std::vector<ScheduledOp> ops_;
  int length_ = 0;
};

}  // namespace rsp::sched
