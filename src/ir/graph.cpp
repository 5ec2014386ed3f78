#include "ir/graph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rsp::ir {

namespace {

void check_node(const Node& node, NodeId id) {
  const int arity = op_arity(node.kind);
  if (static_cast<int>(node.inputs.size()) != arity)
    throw InvalidArgumentError(
        std::string("node of kind ") + op_name(node.kind) + " expects " +
        std::to_string(arity) + " inputs, got " +
        std::to_string(node.inputs.size()));

  int invalid_slots = 0;
  for (NodeId in : node.inputs) {
    if (in == kInvalidNode) {
      ++invalid_slots;
    } else if (in < 0 || in >= id) {
      throw InvalidArgumentError(
          "input " + std::to_string(in) + " of node " + std::to_string(id) +
          " is out of range (same-iteration edges must point backwards)");
    }
  }
  if (invalid_slots != static_cast<int>(node.carried.size()))
    throw InvalidArgumentError(
        "node " + std::to_string(id) + " has " +
        std::to_string(node.carried.size()) + " carried inputs but " +
        std::to_string(invalid_slots) + " open operand slots");
  for (const CarriedInput& c : node.carried) {
    if (c.distance <= 0)
      throw InvalidArgumentError("loop-carried distance must be positive");
    if (c.producer < 0)
      throw InvalidArgumentError("loop-carried producer must be a valid node");
  }
  const bool needs_mem = is_memory_op(node.kind);
  if (needs_mem && !node.mem)
    throw InvalidArgumentError(std::string(op_name(node.kind)) +
                               " node requires a memory reference");
  if (!needs_mem && node.mem)
    throw InvalidArgumentError(std::string(op_name(node.kind)) +
                               " node must not carry a memory reference");
  if (needs_mem && !node.mem->index)
    throw InvalidArgumentError("memory reference requires an index function");
}

}  // namespace

NodeId DataflowGraph::add(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  check_node(node, id);
  for (const CarriedInput& c : node.carried) {
    if (c.producer >= static_cast<NodeId>(nodes_.size()) + 1 &&
        c.producer != id) {
      // Carried producers may reference any node including later ones and
      // the node itself (a self-accumulator); range-check them lazily in
      // validate() since the full graph may not exist yet.
    }
  }
  nodes_.push_back(std::move(node));
  return id;
}

const Node& DataflowGraph::node(NodeId id) const {
  if (id < 0 || id >= size()) throw NotFoundError("node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

Node& DataflowGraph::node(NodeId id) {
  if (id < 0 || id >= size()) throw NotFoundError("node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

std::vector<NodeId> DataflowGraph::dead_value_nodes() const {
  std::vector<bool> used(nodes_.size(), false);
  for (const Node& n : nodes_) {
    for (NodeId in : n.inputs)
      if (in != kInvalidNode) used[static_cast<std::size_t>(in)] = true;
    for (const CarriedInput& c : n.carried)
      used[static_cast<std::size_t>(c.producer)] = true;
  }
  std::vector<NodeId> dead;
  for (NodeId id = 0; id < size(); ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (!used[static_cast<std::size_t>(id)] && produces_value(n.kind))
      dead.push_back(id);
  }
  return dead;
}

int DataflowGraph::count(OpKind kind) const {
  return static_cast<int>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [&](const Node& n) { return n.kind == kind; }));
}

std::vector<OpKind> DataflowGraph::op_set() const {
  // Computational ops only, matching the paper's Table 3 "operation set"
  // column (loads/stores are implied by every kernel).
  static constexpr OpKind kOrder[] = {OpKind::kMult, OpKind::kAdd,
                                      OpKind::kSub, OpKind::kAbs,
                                      OpKind::kShift};
  std::vector<OpKind> out;
  for (OpKind k : kOrder)
    if (count(k) > 0) out.push_back(k);
  return out;
}

std::vector<int> DataflowGraph::asap_levels() const {
  std::vector<int> level(nodes_.size(), 0);
  for (NodeId id = 0; id < size(); ++id) {
    int lvl = 0;
    for (NodeId in : nodes_[static_cast<std::size_t>(id)].inputs)
      if (in != kInvalidNode)
        lvl = std::max(lvl, level[static_cast<std::size_t>(in)] + 1);
    level[static_cast<std::size_t>(id)] = lvl;
  }
  return level;
}

int DataflowGraph::depth() const {
  if (nodes_.empty()) return 0;
  const std::vector<int> levels = asap_levels();
  return 1 + *std::max_element(levels.begin(), levels.end());
}

void DataflowGraph::validate() const {
  for (NodeId id = 0; id < size(); ++id) {
    check_node(nodes_[static_cast<std::size_t>(id)], id);
    for (const CarriedInput& c : nodes_[static_cast<std::size_t>(id)].carried)
      if (c.producer >= size())
        throw InvalidArgumentError("loop-carried producer out of range");
  }
}

}  // namespace rsp::ir
