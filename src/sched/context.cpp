#include "sched/context.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rsp::sched {

ConfigurationContext::ConfigurationContext(arch::Architecture architecture,
                                           std::vector<ScheduledOp> ops)
    : arch_(std::move(architecture)), ops_(std::move(ops)) {
  arch_.validate();
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const ScheduledOp& op = ops_[i];
    if (op.cycle < 0)
      throw InvalidArgumentError("op " + std::to_string(i) +
                                 " has negative issue cycle " +
                                 std::to_string(op.cycle));
    if (op.latency < 1)
      throw InvalidArgumentError("op " + std::to_string(i) + " has latency " +
                                 std::to_string(op.latency) +
                                 "; latency must be >= 1");
    length_ = std::max(length_, op.cycle + op.latency);
  }
}

const ScheduledOp& ConfigurationContext::op(ProgIndex i) const {
  if (i < 0 || i >= size()) throw NotFoundError("op index out of range");
  return ops_[static_cast<std::size_t>(i)];
}

std::vector<int> ConfigurationContext::critical_issues_per_cycle() const {
  std::vector<int> counts(static_cast<std::size_t>(length_), 0);
  for (const ScheduledOp& op : ops_)
    if (ir::is_critical_op(op.kind))
      ++counts[static_cast<std::size_t>(op.cycle)];
  return counts;
}

int ConfigurationContext::max_critical_issues_per_cycle() const {
  const std::vector<int> counts = critical_issues_per_cycle();
  return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
}

namespace {

std::uint8_t opcode_of(ir::OpKind kind) {
  return static_cast<std::uint8_t>(kind) + 1;  // 0 = idle
}

}  // namespace

arch::ConfigCache ConfigurationContext::encode() const {
  arch::ConfigCache cache(arch_.array, std::max(length_, 1));
  for (ProgIndex i = 0; i < size(); ++i) {
    const ScheduledOp& op = ops_[static_cast<std::size_t>(i)];
    arch::ConfigWord& w = cache.word(op.pe, op.cycle);
    if (w.opcode != 0)
      throw InvalidArgumentError(
          "PE issues two operations in the same cycle; context is illegal");
    w.opcode = opcode_of(op.kind);
    w.immediate = static_cast<std::int32_t>(op.imm);
    w.mem_access = ir::is_memory_op(op.kind);
    // Operand source encoding: 0 = none/immediate, 1 = same PE,
    // 2 = neighbour, 3 = row line, 4 = column line.
    auto encode_src = [&](const ProgOperand& o) -> std::uint8_t {
      if (o.is_imm()) return 0;
      switch (arch_.array.route(op.pe,
                                ops_[static_cast<std::size_t>(o.producer)].pe)) {
        case arch::RouteKind::kSamePe:
          return 1;
        case arch::RouteKind::kNeighbor:
          return 2;
        case arch::RouteKind::kRowLine:
          return 3;
        case arch::RouteKind::kColumnLine:
          return 4;
        case arch::RouteKind::kNone:
          break;
      }
      throw InvalidArgumentError("unroutable operand in context encoding");
    };
    // Sources are stored from the *consumer* perspective.
    if (!op.operands.empty()) w.src_a = encode_src(op.operands[0]);
    if (op.operands.size() > 1) w.src_b = encode_src(op.operands[1]);
    if (op.unit) {
      // 1-based position of the unit among the PE's reachable units.
      const auto reachable = arch_.sharing.reachable_units(arch_.array, op.pe);
      auto it = std::find(reachable.begin(), reachable.end(), *op.unit);
      if (it == reachable.end())
        throw InvalidArgumentError("scheduled unit unreachable from its PE");
      w.shared_select =
          static_cast<std::uint8_t>(1 + (it - reachable.begin()));
    }
  }
  return cache;
}

}  // namespace rsp::sched
