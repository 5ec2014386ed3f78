#include "ir/interp.hpp"

#include <cstdlib>

#include "util/error.hpp"

namespace rsp::ir {

void Memory::allocate(const std::string& name, std::size_t size) {
  arrays_[name] = std::vector<std::int64_t>(size, 0);
}

void Memory::set(const std::string& name, std::vector<std::int64_t> data) {
  arrays_[name] = std::move(data);
}

bool Memory::has(const std::string& name) const {
  return arrays_.count(name) != 0;
}

std::size_t Memory::size(const std::string& name) const {
  return find(name).size();
}

const std::vector<std::int64_t>& Memory::find(const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end())
    throw NotFoundError("memory has no array named '" + name + "'");
  return it->second;
}

std::int64_t Memory::read(const std::string& name, std::int64_t index) const {
  const auto& data = find(name);
  if (index < 0 || static_cast<std::size_t>(index) >= data.size())
    throw InvalidArgumentError("read out of bounds: " + name + "[" +
                               std::to_string(index) + "], size " +
                               std::to_string(data.size()));
  return data[static_cast<std::size_t>(index)];
}

void Memory::write(const std::string& name, std::int64_t index,
                   std::int64_t value) {
  auto it = arrays_.find(name);
  if (it == arrays_.end())
    throw NotFoundError("memory has no array named '" + name + "'");
  if (index < 0 || static_cast<std::size_t>(index) >= it->second.size())
    throw InvalidArgumentError("write out of bounds: " + name + "[" +
                               std::to_string(index) + "], size " +
                               std::to_string(it->second.size()));
  it->second[static_cast<std::size_t>(index)] = value;
}

const std::vector<std::int64_t>& Memory::array(const std::string& name) const {
  return find(name);
}

std::vector<std::string> Memory::names() const {
  std::vector<std::string> out;
  out.reserve(arrays_.size());
  for (const auto& [name, data] : arrays_) out.push_back(name);
  return out;
}

namespace {

std::int64_t wrap16(std::int64_t v) {
  return static_cast<std::int16_t>(static_cast<std::uint64_t>(v));
}

std::int64_t wrap32(std::int64_t v) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(v));
}

}  // namespace

std::int64_t eval_op(OpKind kind, std::int64_t a, std::int64_t b,
                     std::int64_t imm, DatapathMode mode) {
  std::int64_t result = 0;
  switch (kind) {
    case OpKind::kConst:
      result = imm;
      break;
    case OpKind::kAdd:
      result = a + b;
      break;
    case OpKind::kSub:
      result = a - b;
      break;
    case OpKind::kMult:
      result = a * b;
      break;
    case OpKind::kAbs:
      result = a < 0 ? -a : a;
      break;
    case OpKind::kShift:
      if (imm >= 0)
        result = a << imm;
      else
        result = a >> (-imm);
      break;
    case OpKind::kRoute:
      result = a;
      break;
    case OpKind::kLoad:
    case OpKind::kStore:
    case OpKind::kNop:
      throw InvalidArgumentError(
          "eval_op handles datapath ops only; memory ops are evaluated by "
          "the interpreter/simulator");
  }
  if (mode == DatapathMode::kWrap16)
    result = kind == OpKind::kMult ? wrap32(result) : wrap16(result);
  return result;
}

InterpResult interpret(const UnrolledGraph& graph, Memory& memory,
                       DatapathMode mode) {
  InterpResult result;
  result.values.assign(static_cast<std::size_t>(graph.size()), 0);

  auto operand_value = [&](const ConcreteOperand& o) {
    return o.is_imm() ? o.imm : result.values[static_cast<std::size_t>(o.op)];
  };

  for (OpId id = 0; id < graph.size(); ++id) {
    const OpKind kind = graph.kind(id);
    const std::span<const ConcreteOperand> operands = graph.operands(id);
    std::int64_t value = 0;
    switch (kind) {
      case OpKind::kLoad:
        value = memory.read(graph.array_name(id), graph.address(id));
        ++result.loads;
        break;
      case OpKind::kStore:
        memory.write(graph.array_name(id), graph.address(id),
                     operand_value(operands[0]));
        ++result.stores;
        break;
      case OpKind::kNop:
        break;
      default: {
        const std::int64_t a =
            operands.size() > 0 ? operand_value(operands[0]) : 0;
        const std::int64_t b =
            operands.size() > 1 ? operand_value(operands[1]) : 0;
        value = eval_op(kind, a, b, graph.imm(id), mode);
        break;
      }
    }
    result.values[static_cast<std::size_t>(id)] = value;
  }
  return result;
}

}  // namespace rsp::ir
